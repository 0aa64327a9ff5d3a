package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestQuiescentSkipBitIdentity is the direct equivalence proof of
// quiescent-span cycle skipping: for every defense, under both issue walks,
// a core that skips provably idle spans must produce identical cycle
// counts, stats, debug logs, µarch-order traces, snapshots and coverage
// bits to a core ticking through every cycle.
func TestQuiescentSkipBitIdentity(t *testing.T) {
	for name, mk := range allDefenses() {
		for _, issue := range []string{"scoreboard", "scan"} {
			t.Run(name+"/"+issue, func(t *testing.T) {
				gcfg := generator.DefaultConfig()
				gcfg.Seed = 1234
				gcfg.Pages = 2
				skip := uarch.NewCore(uarch.DefaultConfig(), mk())
				ref := uarch.NewCore(uarch.DefaultConfig(), mk())
				ref.UseCycleByCycle()
				if issue == "scan" {
					skip.UseScanIssue()
					ref.UseScanIssue()
				}
				// Coverage on the scan pass only: collecting it makes
				// specAtIssue count the shadow depth, without it the query is
				// UnderShadow's early out, and both must hold.
				oracleSweep(t, name+"/"+issue, skip, ref, gcfg, 15, 3, issue == "scan")
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
