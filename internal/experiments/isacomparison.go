package experiments

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// isaComparisonDefenses are the base configurations of the frontend
// comparison: every defense once, no patched variants (the comparison asks
// how the frontends differ, not how the patches do).
var isaComparisonDefenses = []string{
	"baseline", "invisispec", "cleanupspec", "speclfb",
	"stt", "delayonmiss", "ghostminion", "fenceall",
}

// ISAComparison runs the same campaign budget under every defense with each
// registered ISA frontend and tabulates violations found and speculation
// coverage reached per (defense, frontend) cell. It is the experiment
// behind the frontend work: the stack machine reaches the defenses through
// a different program shape (deep dependence chains through the operand
// stack, comparison-materialized branch conditions), so the table shows
// which leaks are frontend-independent and what coverage each source
// language buys.
func ISAComparison(ctx context.Context, scale Scale) (*Table, error) {
	frontends := []isa.Frontend{isa.Toy, wasm.Frontend}

	t := &Table{
		Title:  "ISA frontend comparison: violations and coverage per defense x frontend",
		Header: []string{"Defense"},
		Notes: []string{
			"same campaign budget and seed per cell; only the ISA frontend differs",
			fmt.Sprintf("coverage is speculation features reached, out of %d", uarch.CoverageBits),
		},
	}
	for _, fe := range frontends {
		t.Header = append(t.Header,
			fe.Name()+": violations", fe.Name()+": coverage")
	}

	for _, name := range isaComparisonDefenses {
		spec, err := DefenseByName(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, fe := range frontends {
			ccfg := CampaignConfig(spec, scale)
			ccfg.Base.Frontend = fe
			ccfg.Base.Exec.Coverage = true
			res, err := engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: scale.Workers})
			if err != nil {
				return nil, fmt.Errorf("isa comparison: %s/%s: %w", name, fe.Name(), err)
			}
			row = append(row,
				fmt.Sprintf("%d", len(res.Violations)),
				fmt.Sprintf("%d", coverageCount(res)),
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// coverageCount extracts the merged coverage population of a campaign.
func coverageCount(res *fuzzer.CampaignResult) int {
	if cov := res.Totals().Coverage; cov != nil {
		return cov.Count()
	}
	return 0
}
