// Quickstart: detect a Spectre-v1 leak in an unprotected out-of-order CPU.
//
// This is the smallest end-to-end use of AMuLeT-Go: configure a campaign
// against the insecure baseline core under the CT-SEQ contract (cache side
// channels allowed only on architectural paths, no speculation), run it
// until the first confirmed contract violation, and print the analyzed
// report — the same workflow as the paper's §4.2.
//
// Run with: go run ./examples/quickstart
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
		// The expected-leakage model: CT-SEQ says only architectural-path
		// load/store addresses and PCs may leak. Any speculative cache
		// side effect is therefore a violation.
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:     uarch.DefaultConfig(), // gem5-like out-of-order core
			Format:   executor.FormatL1DTLB, // attacker sees final L1D + D-TLB state
			Prime:    executor.PrimeFill,    // start from fully primed sets
			Strategy: executor.StrategyOpt,  // restart the simulator once per program
		},
		DefenseFactory:       func() uarch.Defense { return uarch.NopDefense{} },
		Seed:                 1,
		Programs:             50,
		BaseInputs:           6,
		MutantsPerInput:      4,
		StopOnFirstViolation: true,
	}

	// One fuzzing instance through the campaign engine (Workers: 0 uses
	// every core; the violation found is the same at any worker count).
	out, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := out.Instances[0]

	fmt.Printf("ran %d test cases in %v (%.0f/s)\n", res.TestCases, res.Elapsed.Round(1e6), res.Throughput())
	if len(res.Violations) == 0 {
		fmt.Println("no violation found — try more programs")
		return
	}
	v := res.Violations[0]
	fmt.Printf("CONTRACT VIOLATION after %v: two inputs with identical %s traces produce different µarch traces\n\n",
		v.DetectedAt.Round(1e6), v.Contract)

	// Root-cause the violation the way §3.3 does: replay the pair with the
	// debug log on, on a fresh simulator of the campaign's configuration, and
	// classify the leak.
	rep, err := analysis.Analyze(executor.New(cfg.Exec, cfg.DefenseFactory()), v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
}
