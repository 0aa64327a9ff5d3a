package fuzzer_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Negative controls: campaigns against designs that are secure by
// construction in this pipeline model must come back clean — a violation
// here is a fuzzer bug (a false positive), not a finding. FenceAll and
// Delay-on-Miss block all speculative side effects; GhostMinion is the
// strictness-ordered design the paper recommends against UV2, so it is
// additionally run at the amplified 2-way/2-MSHR configuration that breaks
// patched InvisiSpec.
func TestCampaignNegativeControls(t *testing.T) {
	cases := []struct {
		name    string
		factory func() uarch.Defense
		amplify bool
	}{
		{"fenceall", func() uarch.Defense { return fenceall.New() }, false},
		{"delayonmiss", func() uarch.Defense { return delayonmiss.New() }, false},
		{"ghostminion", func() uarch.Defense { return ghostminion.New() }, false},
		{"ghostminion-amplified", func() uarch.Defense { return ghostminion.New() }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := campaignConfig(3, 80)
			cfg.DefenseFactory = c.factory
			if c.amplify {
				cfg.Exec.Core.Hier.L1D.Ways = 2
				cfg.Exec.Core.Hier.MSHRs = 2
				cfg.Programs = 200
			}
			res := runCampaign(t, c.name, cfg)
			if len(res.Violations) != 0 {
				v := res.Violations[0]
				t.Errorf("%s violated its contract (false positive?):\nprogram %d\n%s\ntrace diff:\n%s",
					c.name, v.ProgramIndex, v.Program, v.TraceA.Diff(v.TraceB))
			}
		})
	}
}
