package experiments

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
)

// Table5 reproduces the paper's Table 5: testing the baseline CPU with the
// four µarch trace formats. Violations are identified by their campaign
// coordinates (instance, program), so the same leak found by two formats
// counts once; "fraction of total" is relative to the union over all
// formats, and "covered by baseline" is the overlap with the default
// L1D+TLB format. Expected shape: the baseline format catches most
// violations at the highest throughput; memory-access order catches the
// most but is slower; BP-state and branch-order formats catch few and are
// largely subsumed by the baseline format.
func Table5(ctx context.Context, scale Scale) (*Table, error) {
	formats := []executor.TraceFormat{
		executor.FormatL1DTLB,
		executor.FormatBPState,
		executor.FormatMemOrder,
		executor.FormatBranchOrder,
	}
	type vioKey struct {
		instance int
		program  int
	}
	found := make(map[executor.TraceFormat]map[vioKey]bool)
	throughput := make(map[executor.TraceFormat]float64)

	spec, err := DefenseByName("baseline")
	if err != nil {
		return nil, err
	}
	for _, f := range formats {
		ccfg := CampaignConfig(spec, scale)
		ccfg.Base.Exec.Format = f
		res, err := engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: scale.Workers})
		if err != nil {
			return nil, err
		}
		set := make(map[vioKey]bool)
		for i, inst := range res.Instances {
			for _, v := range inst.Violations {
				set[vioKey{instance: i, program: v.ProgramIndex}] = true
			}
		}
		found[f] = set
		throughput[f] = res.Throughput()
	}

	union := make(map[vioKey]bool)
	for _, set := range found {
		for k := range set {
			union[k] = true
		}
	}
	baselineSet := found[executor.FormatL1DTLB]

	t := &Table{
		Title: "Table 5: µarch trace formats on the baseline CPU",
		Header: []string{"Trace format", "Throughput (tests/s)",
			"Fraction of total violations", "Covered by baseline trace"},
	}
	for _, f := range formats {
		set := found[f]
		frac := "-"
		if len(union) > 0 {
			frac = fmt.Sprintf("%.1f%%", 100*float64(len(set))/float64(len(union)))
		}
		covered := "-"
		if len(set) > 0 {
			n := 0
			for k := range set {
				if baselineSet[k] {
					n++
				}
			}
			covered = fmt.Sprintf("%.1f%%", 100*float64(n)/float64(len(set)))
		}
		t.Rows = append(t.Rows, []string{
			f.String(), fmt.Sprintf("%.0f", throughput[f]), frac, covered,
		})
	}
	t.Notes = append(t.Notes,
		"violation identity = (instance, program); paper shape: baseline format best speed/coverage trade-off")
	return t, nil
}
