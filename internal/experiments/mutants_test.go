package experiments_test

import (
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// TestMutantsKeepContractTrace checks, on what campaigns actually build,
// the property the mutator relies on instead of checking each mutant: for
// every -list configuration, under its own contract and under CT-COND, on
// both frontends, every input of every contract-equivalence class —
// mutants included — re-collected on a fresh model has the class's trace.
func TestMutantsKeepContractTrace(t *testing.T) {
	sc := experiments.Scale{Instances: 1, Programs: 8, BaseInputs: 4, Mutants: 4, Seed: 17}
	for _, spec := range experiments.AllDefenses() {
		for _, c := range []contract.Contract{spec.Contract, contract.CTCond} {
			for _, fe := range []isa.Frontend{isa.Toy, wasm.Frontend} {
				cfg := experiments.CampaignConfig(spec, sc).Base
				cfg.Contract, cfg.Frontend = c, fe
				ws := fuzzer.NewWorkspace()
				if err := ws.Reset(cfg, sc.Seed); err != nil {
					t.Fatal(err)
				}
				inputs := 0
				for p := 0; p < sc.Programs; p++ {
					pc, err := ws.Case(context.Background(), nil, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, cls := range pc.Classes {
						for i, in := range cls.Inputs {
							tr, _ := contract.NewModel(c, pc.Prog, pc.SB).Collect(in)
							if !tr.Equal(cls.CTrace) {
								t.Fatalf("%s, %s, %s frontend, program %d: input %d of its class has another contract trace\nclass: %s\ninput: %s\n%s",
									spec.Name, c.Name, fe.Name(), p, i, cls.CTrace, tr, pc.Prog)
							}
						}
						inputs += len(cls.Inputs)
					}
				}
				if want := sc.Programs * sc.BaseInputs * (1 + sc.Mutants); inputs != want {
					t.Errorf("%s, %s, %s frontend: %d inputs in classes, want %d (a mutant was not made)",
						spec.Name, c.Name, fe.Name(), inputs, want)
				}
			}
		}
	}
}
