package experiments

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// DefenseComparison is an extension beyond the paper's tables: it runs one
// fixed workload through every defense configuration (including the
// additional Delay-on-Miss, GhostMinion and FenceAll designs) and reports
// the security verdict from a CT-SEQ campaign next to a simple performance
// proxy — average simulated cycles per test case, normalized to the
// insecure baseline. The paper evaluates security only; this table adds
// the cost axis designers trade against it.
func DefenseComparison(ctx context.Context, scale Scale) (*Table, error) {
	// Performance workload: a fixed set of generated programs and inputs,
	// identical for every defense.
	gcfg := generator.DefaultConfig()
	gcfg.Seed = scale.Seed
	g := generator.New(gcfg)
	sb := g.Sandbox()
	type testCase struct {
		prog   *isa.Program
		inputs []*isa.Input
	}
	var workload []testCase
	for p := 0; p < 20; p++ {
		tc := testCase{prog: g.Program()}
		for i := 0; i < 10; i++ {
			tc.inputs = append(tc.inputs, g.Input())
		}
		workload = append(workload, tc)
	}

	measure := func(spec DefenseSpec) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cfg := CampaignConfig(spec, scale).Base.Exec
		cfg.Prime = executor.PrimeInvalidate // identical reset for fairness
		exec := executor.New(cfg, spec.Factory())
		totalCycles, n := uint64(0), 0
		for _, tc := range workload {
			if err := exec.LoadProgram(tc.prog, sb); err != nil {
				return 0, err
			}
			for _, in := range tc.inputs {
				if _, err := exec.Run(in); err != nil {
					return 0, err
				}
				totalCycles += exec.Core().EndCycle()
				n++
			}
		}
		return float64(totalCycles) / float64(n), nil
	}

	names := []string{
		"baseline", "invisispec-patched", "cleanupspec", "speclfb-patched",
		"stt-patched", "delayonmiss", "ghostminion", "fenceall",
	}
	t := &Table{
		Title: "Defense comparison: CT-SEQ security verdict and performance proxy",
		Header: []string{"Defense", "CT-SEQ violation found?",
			"Avg cycles/test", "Slowdown vs baseline"},
		Notes: []string{
			"performance proxy: simulated cycles on a fixed 200-test workload, clean-cache resets",
			"patched variants are used where the unpatched implementation has known bugs",
		},
	}
	var baselineCycles float64
	for _, name := range names {
		spec, err := DefenseByName(name)
		if err != nil {
			return nil, err
		}
		// Security verdict: a small CT-SEQ campaign (STT keeps ARCH-SEQ).
		sc := scale
		sc.Instances = 2
		ccfg := CampaignConfig(spec, sc)
		ccfg.Base.StopOnFirstViolation = true
		res, err := engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: scale.Workers})
		if err != nil {
			return nil, err
		}
		verdict := "no"
		if res.DetectedViolation() {
			verdict = "YES"
		}

		cycles, err := measure(spec)
		if err != nil {
			return nil, err
		}
		if name == "baseline" {
			baselineCycles = cycles
		}
		slowdown := "-"
		if baselineCycles > 0 {
			slowdown = fmt.Sprintf("%.2fx", cycles/baselineCycles)
		}
		t.Rows = append(t.Rows, []string{
			name, verdict, fmt.Sprintf("%.0f", cycles), slowdown,
		})
	}
	return t, nil
}
