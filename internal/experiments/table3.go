package experiments

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// Table3 reproduces the paper's Table 3: testing the insecure baseline
// out-of-order CPU against CT-SEQ and CT-COND with the Naive and Opt
// strategies. Expected shape: Opt is ~10x faster, finds more CT-SEQ
// violations (priming + predictor carryover) and detects them much
// earlier; CT-COND (Spectre-v4) violations are orders of magnitude rarer
// than CT-SEQ (Spectre-v1) ones.
func Table3(ctx context.Context, scale Scale) (*Table, error) {
	run := func(c contract.Contract, strategy executor.Strategy) (*fuzzer.CampaignResult, error) {
		ccfg, err := table3Config(scale, c, strategy)
		if err != nil {
			return nil, err
		}
		return engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: scale.Workers})
	}

	t := &Table{
		Title:  "Table 3: baseline out-of-order CPU, Naive vs Opt",
		Header: []string{"Metric", "Contract", "Naive", "Opt"},
	}
	for _, c := range []contract.Contract{contract.CTSeq, contract.CTCond} {
		nv, err := run(c, executor.StrategyNaive)
		if err != nil {
			return nil, err
		}
		ov, err := run(c, executor.StrategyOpt)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			[]string{"campaign time", c.Name, fmtDuration(nv.Elapsed), fmtDuration(ov.Elapsed)},
			[]string{"throughput (tests/s)", c.Name,
				fmt.Sprintf("%.0f", nv.Throughput()), fmt.Sprintf("%.0f", ov.Throughput())},
			[]string{"violations (avg/instance)", c.Name,
				fmt.Sprintf("%.1f", float64(len(nv.Violations))/float64(len(nv.Instances))),
				fmt.Sprintf("%.1f", float64(len(ov.Violations))/float64(len(ov.Instances)))},
			[]string{"detection time", c.Name, detTime(nv), detTime(ov)},
		)
	}
	t.Notes = append(t.Notes,
		"paper shape: Opt ~10x higher throughput; more CT-SEQ violations; CT-COND (Spectre-v4) rare")
	return t, nil
}

// table3Config is the campaign of one Table 3 cell: the baseline under
// contract c with the given strategy.
func table3Config(scale Scale, c contract.Contract, strategy executor.Strategy) (fuzzer.CampaignConfig, error) {
	spec, err := DefenseByName("baseline")
	if err != nil {
		return fuzzer.CampaignConfig{}, err
	}
	ccfg := CampaignConfig(spec, scale)
	ccfg.Base.Contract = c
	ccfg.Base.Exec.Strategy = strategy
	if strategy == executor.StrategyNaive {
		// Naive pays the startup per input; keep its budget comparable
		// in wall-clock terms, as the paper did with its shorter Naive
		// campaigns.
		ccfg.Base.Programs = max(scale.Programs/4, 2)
	}
	return ccfg, nil
}

func detTime(r *fuzzer.CampaignResult) string {
	d, ok := r.AvgDetectionTime()
	if !ok {
		return "N/A"
	}
	return fmtDuration(d)
}
