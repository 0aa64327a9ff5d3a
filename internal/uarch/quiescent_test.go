package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
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
