package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestScoreboardBitIdentity is the direct equivalence proof of the issue
// scoreboard: for every defense, random programs and inputs with state
// carried across inputs, the scoreboard walk (unissued list + completion
// bitmask) and the full-ROB scan with per-producer DepsDone checks must
// produce identical cycle counts, stats, debug logs, µarch-order traces and
// snapshots — and, in the coverage pass, identical coverage bits.
func TestScoreboardBitIdentity(t *testing.T) {
	for name, mk := range allDefenses() {
		for _, cov := range []bool{false, true} {
			tag := name
			if cov {
				tag += "/coverage"
			}
			t.Run(tag, func(t *testing.T) {
				gcfg := generator.DefaultConfig()
				gcfg.Seed = 271
				gcfg.Pages = 2
				sc := uarch.NewCore(uarch.DefaultConfig(), mk())
				scan := uarch.NewCore(uarch.DefaultConfig(), mk())
				scan.UseScanIssue()
				progs := 20
				if cov {
					progs = 8
				}
				oracleSweep(t, tag, sc, scan, gcfg, progs, 3, cov)
			})
		}
	}
}

// TestScoreboardBitIdentitySmallROB stresses the compaction rebuild (RobIdx
// renumbering re-derives every wait mask and the done bitmask) and squash
// truncation of the unissued list with a tiny window and narrow pipeline.
func TestScoreboardBitIdentitySmallROB(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 272
	sc := uarch.NewCore(smallROBConfig(), nil)
	scan := uarch.NewCore(smallROBConfig(), nil)
	scan.UseScanIssue()
	oracleSweep(t, "small-rob", sc, scan, gcfg, 40, 1, false)
}
