// CleanupSpec case study: run the original and the store-cleanup-patched
// implementation, classify every violation by signature, and print the
// bug matrix of the paper's Table 8 (UV3 disappears with the patch; UV4
// split requests and UV5 over-cleaning remain).
//
// Run with: go run ./examples/cleanupspec
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
)

func classify(defense string, programs int) map[analysis.Signature]int {
	spec, err := experiments.DefenseByName(defense)
	if err != nil {
		log.Fatal(err)
	}
	scale := experiments.QuickScale()
	scale.Instances = 3
	scale.Programs = programs
	// The rollback bugs are rare (UV5 about once per 15k test cases): seed 5
	// is the seed Table 8 pins, where both implementations show UV5 within
	// this budget.
	scale.Seed = 5
	ccfg := experiments.CampaignConfig(spec, scale)
	res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %d test cases, %d raw violations\n", defense, res.TestCases, len(res.Violations))

	exec := executor.New(ccfg.Base.Exec, spec.Factory())
	counts := map[analysis.Signature]int{}
	for i, v := range res.Violations {
		if i >= 30 {
			break
		}
		rep, err := analysis.Analyze(exec, v)
		if err != nil {
			log.Fatal(err)
		}
		counts[rep.Signature]++
	}
	return counts
}

func main() {
	orig := classify("cleanupspec", 150)
	patched := classify("cleanupspec-patched", 150)

	mark := func(m map[analysis.Signature]int, sig analysis.Signature) string {
		if m[sig] > 0 {
			return fmt.Sprintf("YES (%d)", m[sig])
		}
		return "no"
	}
	fmt.Println("\nViolation type                          Original     Patched")
	fmt.Println("--------------------------------------------------------------")
	rows := []struct {
		name string
		sig  analysis.Signature
	}{
		{"speculative store not cleaned (UV3)", analysis.SigSpecStore},
		{"split requests not cleaned (UV4)", analysis.SigSplitRequest},
		{"too much cleaning (UV5)", analysis.SigOverClean},
	}
	for _, r := range rows {
		fmt.Printf("%-38s  %-11s  %s\n", r.name, mark(orig, r.sig), mark(patched, r.sig))
	}
	fmt.Println("\npaper shape: the UV3 leak is an implementation bug the patch removes;")
	fmt.Println("UV4 (the artifact's `TODO: Cleanup for SplitReq`) and UV5 (rollback")
	fmt.Println("without ownership tracking) are properties of the design as shipped.")
}
