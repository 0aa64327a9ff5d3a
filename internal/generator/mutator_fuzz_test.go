package generator

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// FuzzMutantTrace is the property the mutator relies on instead of checking
// each mutant: a mutant that keeps every byte and register the usage
// summary marks has its base input's contract trace, whatever the contract
// explores. Each run generates one program of the chosen frontend in the
// chosen sandbox, collects a few base inputs under the chosen contract, and
// re-collects every mutant derived from them on a model of its own, under
// either register policy — redrawing the registers that are not live-in
// even under ARCH-SEQ, where the summary must mark every one.
func FuzzMutantTrace(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		for c := uint8(0); c < 3; c++ {
			for fe := uint8(0); fe < 2; fe++ {
				for pages := uint8(0); pages < 3; pages++ {
					f.Add(seed, c, fe, pages, seed == 2)
				}
			}
		}
	}
	// CT-COND, toy, 2 pages: a mispredicted path reads a register the
	// architectural path has not written yet (found by fuzzing).
	f.Add(int64(-23), uint8(1), uint8(0), uint8(1), true)
	contracts := []contract.Contract{contract.CTSeq, contract.CTCond, contract.ArchSeq}
	frontends := []isa.Frontend{isa.Toy, wasm.Frontend}
	f.Fuzz(func(t *testing.T, seed int64, c, fe, pages uint8, mutateRegs bool) {
		ct := contracts[c%3]
		cfg := DefaultConfig()
		cfg.Seed, cfg.Pages = seed, []int{1, 2, 128}[pages%3]
		g := NewFor(cfg, frontends[fe%2])
		sb := g.Sandbox()
		prog := g.Program()
		model, check := contract.NewModel(ct, prog, sb), contract.NewModel(ct, prog, sb)
		mut := NewMutator(seed^0x5eed, mutateRegs, false)
		for b := 0; b < 3; b++ {
			base := g.Input()
			tr, usage := model.Collect(base)
			for m := 0; m < 4; m++ {
				mutant, ok := mut.MutateIn(nil, base, usage)
				if !ok {
					continue
				}
				if got, _ := check.Collect(mutant); !got.Equal(tr) {
					t.Fatalf("%s, %d pages, %s frontend, mutateRegs=%v: base %d mutant %d changed the contract trace\nbase:   %s\nmutant: %s\n%s",
						ct.Name, sb.Pages, g.Frontend().Name(), mutateRegs, b, m, tr, got, prog)
				}
			}
		}
	})
}
