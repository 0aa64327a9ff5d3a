// Trace-format comparison: test the baseline CPU with each of the paper's
// µarch trace formats (Table 5) and report throughput and violations per
// format. The default L1D+TLB snapshot models a realistic software
// attacker; the ordered formats model physical probing.
//
// Run with: go run ./examples/traceformats
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
)

func main() {
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		log.Fatal(err)
	}
	formats := []executor.TraceFormat{
		executor.FormatL1DTLB,
		executor.FormatBPState,
		executor.FormatMemOrder,
		executor.FormatBranchOrder,
	}
	fmt.Println("µarch trace format        tests/s   violations   validations")
	fmt.Println("--------------------------------------------------------------")
	for _, f := range formats {
		scale := experiments.QuickScale()
		scale.Instances = 2
		scale.Programs = 80
		ccfg := experiments.CampaignConfig(spec, scale)
		ccfg.Base.Exec.Format = f
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		if err != nil {
			log.Fatal(err)
		}
		validations := 0
		for _, inst := range res.Instances {
			validations += inst.ValidationRuns
		}
		fmt.Printf("%-24s %8.0f   %10d   %11d\n", f, res.Throughput(), len(res.Violations), validations)
	}
	fmt.Println("\npaper shape: the default L1D+TLB snapshot offers the best")
	fmt.Println("speed/coverage trade-off; finer-grained formats trigger more")
	fmt.Println("validation re-runs (context-sensitive mismatches) and run slower.")
}
