package experiments

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// table5Formats are Table 5's rows.
var table5Formats = []executor.TraceFormat{
	executor.FormatL1DTLB,
	executor.FormatBPState,
	executor.FormatMemOrder,
	executor.FormatBranchOrder,
}

// Table5 reproduces the paper's Table 5: testing the baseline CPU with the
// four µarch trace formats. Violations are identified by their campaign
// coordinates (instance, program), so the same leak found by two formats
// counts once; "fraction of total" is relative to the union over all
// formats, and "covered by baseline" is the overlap with the default
// L1D+TLB format. Expected shape: the baseline format catches most
// violations; memory-access order catches the most; BP-state and
// branch-order formats catch few and are largely subsumed by the baseline
// format.
//
// The paper also finds the baseline format the fastest. That is not
// reproduced here: the four formats simulate identical test cases (only
// FormatL1DTLBL1I, not in the table, changes the prime), so they differ
// only in trace extraction and in the validation re-runs their differing
// traces cost, and wall time on a 2-vCPU box cannot order them. The
// throughput column is measured, not ranked.
func Table5(ctx context.Context, scale Scale) (*Table, error) {
	runs, err := table5Campaigns(ctx, scale)
	if err != nil {
		return nil, err
	}
	return table5(runs), nil
}

// table5Campaigns runs the baseline campaign once per Table 5 format.
func table5Campaigns(ctx context.Context, scale Scale) (map[executor.TraceFormat]*fuzzer.CampaignResult, error) {
	spec, err := DefenseByName("baseline")
	if err != nil {
		return nil, err
	}
	runs := make(map[executor.TraceFormat]*fuzzer.CampaignResult)
	for _, f := range table5Formats {
		ccfg := CampaignConfig(spec, scale)
		ccfg.Base.Exec.Format = f
		if runs[f], err = engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: scale.Workers}); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// table5 renders Table 5 from its campaigns.
func table5(runs map[executor.TraceFormat]*fuzzer.CampaignResult) *Table {
	type vioKey struct {
		instance int
		program  int
	}
	found := make(map[executor.TraceFormat]map[vioKey]bool)
	throughput := make(map[executor.TraceFormat]float64)
	for _, f := range table5Formats {
		res := runs[f]
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
	for _, f := range table5Formats {
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
		"violation identity = (instance, program); paper shape: baseline format best speed/coverage trade-off",
		"the speed half is not reproduced: the four formats simulate the same test cases and differ only in "+
			"trace extraction and validation re-runs, which wall time on a few cores cannot order")
	return t
}
