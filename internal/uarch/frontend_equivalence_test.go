package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestFrontendSimEmuArchEquivalence is the cross-frontend counterpart of
// TestSimEmuArchEquivalence: for every registered ISA frontend, random
// source programs are lowered to µops and run through both the out-of-order
// core (with every defense attached) and the functional emulator; the two
// must commit identical architectural state. For the toy frontend this
// re-proves the original property through the Frontend interface; for the
// stack frontend it additionally pins the lowering (static stack-slot
// register allocation, CMOV-materialized comparisons, branch fixups) as
// semantics-preserving under speculation, squashes and defense machinery.
func TestFrontendSimEmuArchEquivalence(t *testing.T) {
	defenses := map[string]func() uarch.Defense{
		"baseline":    func() uarch.Defense { return uarch.NopDefense{} },
		"invisispec":  func() uarch.Defense { return invisispec.New(invisispec.Config{}) },
		"cleanupspec": func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) },
		"stt":         func() uarch.Defense { return stt.New(stt.Config{}) },
		"speclfb":     func() uarch.Defense { return speclfb.New(speclfb.Config{}) },
		"delayonmiss": func() uarch.Defense { return delayonmiss.New() },
		"ghostminion": func() uarch.Defense { return ghostminion.New() },
		"fenceall":    func() uarch.Defense { return fenceall.New() },
	}
	frontends := []isa.Frontend{isa.Toy, wasm.Frontend}

	for _, fe := range frontends {
		fe := fe
		t.Run(fe.Name(), func(t *testing.T) {
			for name, mk := range defenses {
				t.Run(name, func(t *testing.T) {
					gcfg := generator.DefaultConfig()
					gcfg.Pages = 2
					gcfg.Seed = 12345
					g := generator.NewFor(gcfg, fe)
					sb := g.Sandbox()
					core := uarch.NewCore(uarch.DefaultConfig(), mk())
					for i := 0; i < 60; i++ {
						src := g.Source()
						prog := fe.Lower(src)
						in := g.Input()

						if err := core.LoadTest(prog, sb); err != nil {
							t.Fatal(err)
						}
						core.ResetUarch()
						core.ResetForInput(in)
						if err := core.Run(); err != nil {
							t.Fatalf("program %d: %v\nsource:\n%s", i, err, src)
						}

						m := emu.New(prog, sb, in)
						if err := m.Run(100000); err != nil {
							t.Fatalf("program %d emulator: %v", i, err)
						}

						if core.Regs() != m.Regs {
							t.Fatalf("program %d: register files differ\nsim=%v\nemu=%v\nsource:\n%s\nlowered:\n%s",
								i, core.Regs(), m.Regs, src, prog)
						}
						simMem, emuMem := core.Image().Dense(), m.Mem.Dense()
						for off := range simMem {
							if simMem[off] != emuMem[off] {
								t.Fatalf("program %d: memory differs at %#x: sim=%#x emu=%#x\nsource:\n%s",
									i, off, simMem[off], emuMem[off], src)
							}
						}
					}
				})
			}
		})
	}
}
