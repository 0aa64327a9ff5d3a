package mem_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestCalendarFillBitIdentity is the core-level equivalence proof of the
// calendar-ring fill queue: with fills routed through the ring versus
// through the reference min-heap, every defense must see identical fill
// batches — same cycles, same id order — and therefore produce identical
// runs: end cycle, stats, registers, debug log, both µarch-order traces and
// every cache/TLB/predictor snapshot. It lives outside package mem because
// it drives whole cores (uarch and the defenses import mem) yet needs mem's
// test-only heap selector.
func TestCalendarFillBitIdentity(t *testing.T) {
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
	for name, mk := range defenses {
		t.Run(name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 273
			gcfg.Pages = 2
			g := generator.New(gcfg)
			sb := g.Sandbox()
			ring := uarch.NewCore(uarch.DefaultConfig(), mk())
			heap := uarch.NewCore(uarch.DefaultConfig(), mk())
			heap.Hier.UseHeapFills()
			for p := 0; p < 12; p++ {
				prog := g.Program()
				for k := 0; k < 2; k++ {
					in := g.Input()
					// Everything a run lets an observer see.
					run := func(c *uarch.Core) []any {
						if err := c.LoadTest(prog, sb); err != nil {
							t.Fatal(err)
						}
						c.ResetForInput(in)
						c.Log.Enabled = true
						if err := c.Run(); err != nil {
							t.Fatalf("prog %d input %d: %v\n%s", p, k, err, prog)
						}
						return []any{
							c.EndCycle(), c.Stats(), c.Regs(),
							slices.Clone(c.Log.Recs), slices.Clone(c.AccessOrder()), slices.Clone(c.BranchOrder()),
							c.Hier.L1D.Snapshot(), c.Hier.DTLB.Snapshot(), c.Hier.L1I.Snapshot(),
							c.BP.Snapshot(),
						}
					}
					if r, h := run(ring), run(heap); !reflect.DeepEqual(r, h) {
						t.Fatalf("prog %d input %d: ring and heap runs differ\nring: %+v\nheap: %+v\n%s", p, k, r, h, prog)
					}
				}
			}
		})
	}
}
