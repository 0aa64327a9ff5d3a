// Minimization walkthrough: find a violation in a random ~50-instruction
// program and automatically reduce it to the few instructions that form
// the actual leakage gadget — the step the paper performs by hand over
// "hours to days" of debug-log reading (§3.3a).
//
// Run with: go run ./examples/minimize
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func main() {
	cfg := fuzzer.Config{
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:     uarch.DefaultConfig(),
			Format:   executor.FormatL1DTLB,
			Prime:    executor.PrimeFill,
			Strategy: executor.StrategyOpt,
		},
		DefenseFactory:       func() uarch.Defense { return uarch.NopDefense{} },
		Seed:                 1,
		Programs:             50,
		BaseInputs:           6,
		MutantsPerInput:      4,
		StopOnFirstViolation: true,
	}
	out, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := out.Instances[0]
	if len(res.Violations) == 0 {
		fmt.Println("no violation found — try more programs")
		return
	}
	v := res.Violations[0]
	fmt.Printf("found a CT-SEQ violation in a %d-instruction random program:\n\n%s\n",
		v.Program.Len(), v.Program)

	min, removed, err := analysis.Minimize(executor.New(cfg.Exec, cfg.DefenseFactory()), cfg.Contract, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimizer removed %d instructions; the gadget that leaks:\n\n%s\n",
		removed, analysis.Compact(min.Program))
	fmt.Printf("µarch trace diff of the minimized gadget:\n%s", min.TraceA.Diff(min.TraceB))
}
