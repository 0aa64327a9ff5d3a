package uarch_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestUarchRestoreReplay pins what violation validation relies on — both
// inputs of a candidate replayed from the same context µ (Definition 2.1):
// under every defense, a test case run from a context saved with
// SaveUarchInto and run again after another input has moved the caches,
// predictors and pending-fill queue on and RestoreUarch has rewound them
// must be bit-identical: end cycle, stats, registers, debug log, both
// µarch-order traces, every cache/TLB snapshot and the predictor digest.
// Context carries over between cases, as in a campaign.
func TestUarchRestoreReplay(t *testing.T) {
	for name, mk := range allDefenses() {
		t.Run(name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = 273
			gcfg.Pages = 2
			g := generator.New(gcfg)
			sb := g.Sandbox()
			core := uarch.NewCore(uarch.DefaultConfig(), mk())
			var st uarch.UarchState
			for p := 0; p < 12; p++ {
				prog := g.Program()
				if err := core.LoadTest(prog, sb); err != nil {
					t.Fatal(err)
				}
				// Everything a run lets an observer see.
				observe := func(in *isa.Input) []any {
					core.ResetForInput(in)
					core.Log.Enabled = true
					if err := core.Run(); err != nil {
						t.Fatalf("prog %d: %v\n%s", p, err, prog)
					}
					return []any{
						core.EndCycle(), core.Stats(), core.Regs(),
						slices.Clone(core.Log.Recs), slices.Clone(core.AccessOrder()), slices.Clone(core.BranchOrder()),
						core.Hier.L1D.Snapshot(), core.Hier.DTLB.Snapshot(), core.Hier.L1I.Snapshot(),
						core.BP.Snapshot(),
					}
				}
				for k := 0; k < 3; k++ {
					in, other := g.Input(), g.Input()
					core.SaveUarchInto(&st)
					first := observe(in)
					observe(other)
					core.RestoreUarch(&st)
					if again := observe(in); !reflect.DeepEqual(first, again) {
						t.Fatalf("prog %d input %d: replay from the restored context differs\nfirst: %+v\nagain: %+v\n%s",
							p, k, first, again, prog)
					}
				}
			}
		})
	}
}
