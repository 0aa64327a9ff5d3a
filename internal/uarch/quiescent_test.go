package uarch_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestQuiescentSkipBitIdentity is the direct equivalence proof of
// quiescent-span cycle skipping: for every defense, a core that skips
// provably idle spans must produce identical cycle counts, stats, debug
// logs, µarch-order traces, snapshots and coverage bits to a core ticking
// through every cycle, both issuing by the scoreboard.
func TestQuiescentSkipBitIdentity(t *testing.T) {
	for name, mk := range allDefenses() {
		for _, cov := range []bool{false, true} {
			tag := name
			if cov {
				tag += "/coverage"
			}
			t.Run(tag, func(t *testing.T) {
				gcfg := generator.DefaultConfig()
				gcfg.Seed = 1234
				gcfg.Pages = 2
				skip := uarch.NewCore(uarch.DefaultConfig(), mk())
				ref := uarch.NewCore(uarch.DefaultConfig(), mk())
				ref.UseCycleByCycle()
				// Collecting coverage makes specAtIssue count the shadow
				// depth, without it the query is UnderShadow's early out, and
				// both must hold.
				oracleSweep(t, tag, skip, ref, gcfg, 15, 3, cov)
			})
		}
	}
}

// TestQuiescentSkipSmallROB stresses the skip proofs where they are
// hardest: a tiny window keeps the ROB full (the pure-blocked fetch case),
// a narrow issue stage leaves issuable instructions dispatched across
// cycles, and fences reach the head slowly.
func TestQuiescentSkipSmallROB(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 321
	skip := uarch.NewCore(smallROBConfig(), nil)
	ref := uarch.NewCore(smallROBConfig(), nil)
	ref.UseCycleByCycle()
	oracleSweep(t, "small-rob", skip, ref, gcfg, 40, 1, false)
}

// TestPhantomSpanBitIdentity covers the spans that include phantom fetches
// past the program end (skipPhantomFetches), where the long drains of the
// campaign regime sit: fill-primed runs with the L1I warm across inputs, so
// phantom fetches hit and spans run long, and with the L1I invalidated
// before each input, as the L1D+TLB+L1I trace format primes it, so they
// miss and schedule fills; STT over a 128-page sandbox, InvisiSpec, and
// CleanupSpec on an invalidate prime. Beyond compareCores it checks the
// whole cache state with LRU stamps (L1D, L1I, L2, D-TLB) and the fill-id
// counter against the cycle-by-cycle loop after every input.
func TestPhantomSpanBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		def        func() uarch.Defense
		pages      int
		fill, l1i  bool // fill-prime the L1D (else invalidate-prime); invalidate the L1I
		seed       int64
		progs, ins int
	}{
		{"stt-128p/l1i-warm", allDefenses()["stt"], 128, true, false, 71, 6, 12},
		{"stt-128p/l1i-primed", allDefenses()["stt"], 128, true, true, 72, 6, 12},
		{"invisispec/l1i-warm", allDefenses()["invisispec"], 1, true, false, 73, 8, 12},
		{"invisispec/l1i-primed", allDefenses()["invisispec"], 1, true, true, 74, 8, 12},
		{"cleanupspec/invalidate", allDefenses()["cleanupspec"], 1, false, true, 75, 8, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gcfg := generator.DefaultConfig()
			gcfg.Seed = tc.seed
			gcfg.Pages = tc.pages
			g := generator.New(gcfg)
			sb := g.Sandbox()
			skip := uarch.NewCore(uarch.DefaultConfig(), tc.def())
			ref := uarch.NewCore(uarch.DefaultConfig(), tc.def())
			ref.UseCycleByCycle()
			var stSkip, stRef mem.HierState
			for p := 0; p < tc.progs; p++ {
				prog := g.Program()
				for k := 0; k < tc.ins; k++ {
					in := g.Input()
					for _, c := range []*uarch.Core{skip, ref} {
						switch {
						case !tc.fill:
							c.Hier.PrimeInvalidate(true)
						case tc.l1i:
							c.Hier.InvalidateL1I(true)
							c.Hier.PrimeL1D(true)
						default:
							c.Hier.PrimeL1D(true)
						}
					}
					tag := fmt.Sprintf("prog %d input %d", p, k)
					compareCores(t, tag, skip, ref, prog, sb, in)
					skip.Hier.SaveInto(&stSkip)
					ref.Hier.SaveInto(&stRef)
					if !reflect.DeepEqual(stSkip, stRef) {
						t.Fatalf("%s: cache or TLB state (with LRU stamps) differs from the cycle-by-cycle loop\n%s", tag, prog)
					}
					// The next fill id tells how many fills each core scheduled.
					idSkip := skip.Hier.ScheduleFill(0, 0, mem.SinkNone, 0)
					idRef := ref.Hier.ScheduleFill(0, 0, mem.SinkNone, 0)
					if idSkip != idRef {
						t.Fatalf("%s: next fill id %d, cycle-by-cycle %d\n%s", tag, idSkip, idRef, prog)
					}
				}
			}
		})
	}
}
