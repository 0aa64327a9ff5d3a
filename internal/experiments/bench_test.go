package experiments

// One benchmark per evaluation table and violation figure of the paper.
// Each benchmark iteration regenerates the corresponding experiment at a
// laptop-scale budget and reports campaign-level metrics; run with
//
//	go test -run '^$' -bench . -benchtime=1x ./internal/experiments
//
// Budgets are deliberately small so the whole set finishes in seconds;
// `cmd/amulet -experiment tableN -scale paper` runs the paper-sized
// campaigns. Campaign throughput is measured by the repository benchmark
// under bench/, not here.

import (
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// benchScale keeps benchmark iterations in the seconds range.
func benchScale() Scale {
	return Scale{
		Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1,
	}
}

// BenchmarkTable2_TimeBreakdown regenerates Table 2 (Naive vs Opt time
// breakdown per test program).
func BenchmarkTable2_TimeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table2(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_BaselineNaiveVsOpt regenerates Table 3 (baseline CPU
// against CT-SEQ and CT-COND with both strategies).
func BenchmarkTable3_BaselineNaiveVsOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table3(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_DefenseCampaigns regenerates Table 4 (campaigns against
// the baseline and all four countermeasures, with violation analysis).
func BenchmarkTable4_DefenseCampaigns(b *testing.B) {
	sc := benchScale()
	sc.Programs = 60
	var violations int
	for i := 0; i < b.N; i++ {
		r, err := Table4(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		violations = len(r.Reports)
	}
	b.ReportMetric(float64(violations), "defenses-with-violations")
}

// BenchmarkTable5_TraceFormats regenerates Table 5 (µarch trace formats).
func BenchmarkTable5_TraceFormats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table5(context.Background(), benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6_Amplification regenerates Table 6 (leakage amplification
// on the patched InvisiSpec; the 2-MSHR row exposes UV2).
func BenchmarkTable6_Amplification(b *testing.B) {
	sc := benchScale()
	sc.Seed = 5 // a seed whose budget reliably reaches the UV2 pattern
	sc.Programs = 100
	sc.BaseInputs = 8
	sc.Mutants = 5
	for i := 0; i < b.N; i++ {
		if _, err := Table6(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8_CleanupSpecMatrix regenerates Table 8 (CleanupSpec
// violation types, original vs patched).
func BenchmarkTable8_CleanupSpecMatrix(b *testing.B) {
	sc := benchScale()
	sc.Programs = 80
	for i := 0; i < b.N; i++ {
		if _, err := Table8(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable11_LoC regenerates the integration-cost accounting.
func BenchmarkTable11_LoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table11(); err != nil {
			b.Fatal(err)
		}
	}
}

// figureBench runs a campaign to the first confirmed violation of one
// defense and produces its analyzed report — the material of the paper's
// violation figures — replaying the violation on a fresh executor of the
// campaign's configuration. A campaign that finds nothing fails the
// benchmark: the figure it stands for was not reproduced. It reports the
// detection time as a metric.
func figureBench(b *testing.B, defense string, seed int64, programs int, mutate func(*fuzzer.CampaignConfig)) {
	spec, err := DefenseByName(defense)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Seed = seed
	sc.Programs = programs
	sc.BaseInputs = 8
	sc.Mutants = 5
	var detectMS float64
	for i := 0; i < b.N; i++ {
		ccfg := CampaignConfig(spec, sc)
		ccfg.Base.StopOnFirstViolation = true
		if mutate != nil {
			mutate(&ccfg)
		}
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
		if err != nil {
			b.Fatal(err)
		}
		if !res.DetectedViolation() {
			b.Fatalf("%s: no violation in %d instances x %d programs at seed %d", defense, sc.Instances, programs, seed)
		}
		if d, ok := res.AvgDetectionTime(); ok {
			detectMS = float64(d.Milliseconds())
		}
		exec := executor.New(ccfg.Base.Exec, ccfg.Base.DefenseFactory())
		if _, err := analysis.Analyze(exec, res.Violations[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(detectMS, "detection-ms")
}

// BenchmarkFigure4_InvisiSpecUV1 finds and analyzes the speculative
// L1D-eviction violation in the unpatched InvisiSpec (paper Figure 4).
func BenchmarkFigure4_InvisiSpecUV1(b *testing.B) {
	figureBench(b, "invisispec", 2, 120, nil)
}

// BenchmarkFigure6_InvisiSpecUV2 finds and analyzes the same-core
// speculative interference violation on the patched InvisiSpec with two
// MSHRs (paper Figure 6 / Table 7).
func BenchmarkFigure6_InvisiSpecUV2(b *testing.B) {
	figureBench(b, "invisispec-patched", 3, 200, func(c *fuzzer.CampaignConfig) {
		c.Base.Exec.Core.Hier.L1D.Ways = 2
		c.Base.Exec.Core.Hier.MSHRs = 2
	})
}

// BenchmarkFigure8_SpecLFBUV6 finds and analyzes the unprotected
// first-speculative-load violation in SpecLFB (paper Figure 8).
func BenchmarkFigure8_SpecLFBUV6(b *testing.B) {
	figureBench(b, "speclfb", 7, 250, nil)
}

// BenchmarkFigure9_STTKV3 finds and analyzes the tainted-store TLB leak in
// STT (paper Figure 9).
func BenchmarkFigure9_STTKV3(b *testing.B) {
	figureBench(b, "stt", 9, 150, nil)
}

// BenchmarkStrategyRandomVsCorpus contrasts the generation strategies on an
// identical engine budget, reporting each strategy's violations per 1000
// executed cases — the coverage feedback loop's payoff metric.
func BenchmarkStrategyRandomVsCorpus(b *testing.B) {
	spec, err := DefenseByName("cleanupspec")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Programs = 60
	for _, strategy := range []string{engine.StrategyRandom, engine.StrategyCorpus} {
		b.Run(strategy, func(b *testing.B) {
			var perK float64
			for i := 0; i < b.N; i++ {
				res, err := engine.RunCampaign(context.Background(), engine.Config{
					Campaign: CampaignConfig(spec, sc), Strategy: strategy,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.TestCases > 0 {
					perK = 1000 * float64(len(res.Violations)) / float64(res.TestCases)
				}
			}
			b.ReportMetric(perK, "violations/1k-cases")
		})
	}
}

// BenchmarkPrimeFillVsInvalidate quantifies the cache-reset cost gap that
// drives the InvisiSpec-vs-CleanupSpec throughput difference in Table 4:
// one instance of 20 programs on one worker per iteration.
func BenchmarkPrimeFillVsInvalidate(b *testing.B) {
	spec, err := DefenseByName("baseline")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []executor.PrimeMode{executor.PrimeFill, executor.PrimeInvalidate} {
		b.Run(mode.String(), func(b *testing.B) {
			ccfg := CampaignConfig(spec, benchScale())
			ccfg.Instances = 1
			ccfg.Base.Exec.Prime = mode
			ccfg.Base.Programs = 20
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefenseComparison regenerates the extended security/performance
// comparison across all eight defense configurations.
func BenchmarkDefenseComparison(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := DefenseComparison(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPriming quantifies the cache-priming design decision
// (§3.2 C2): campaigns that start from primed (full) sets see leaks through
// installs *and* evictions, so they confirm more violations than campaigns
// starting from a clean cache. The metric reported per sub-benchmark is the
// number of confirmed violations on identical budgets and seeds.
func BenchmarkAblationPriming(b *testing.B) {
	run := func(b *testing.B, prime executor.PrimeMode) {
		spec, err := DefenseByName("invisispec")
		if err != nil {
			b.Fatal(err)
		}
		sc := benchScale()
		sc.Programs = 80
		violations := 0
		for i := 0; i < b.N; i++ {
			ccfg := CampaignConfig(spec, sc)
			ccfg.Base.Exec.Prime = prime
			res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
			if err != nil {
				b.Fatal(err)
			}
			violations = len(res.Violations)
		}
		b.ReportMetric(float64(violations), "violations")
	}
	b.Run("primed-sets", func(b *testing.B) { run(b, executor.PrimeFill) })
	b.Run("clean-cache", func(b *testing.B) { run(b, executor.PrimeInvalidate) })
}

// BenchmarkAblationValidation quantifies the violation-validation design
// decision: without the common-context replay, predictor-state carryover
// between Opt inputs fabricates mismatches that are not input-dependent
// leaks. The metrics contrast raw µarch-trace mismatches (validation
// attempts) with confirmed violations on the unpatched InvisiSpec: the gap
// is what validation filtered out.
func BenchmarkAblationValidation(b *testing.B) {
	spec, err := DefenseByName("invisispec")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	sc.Programs = 80
	var mismatches, confirmed float64
	for i := 0; i < b.N; i++ {
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: CampaignConfig(spec, sc)})
		if err != nil {
			b.Fatal(err)
		}
		mismatches = float64(res.Totals().ValidationRuns)
		confirmed = float64(len(res.Violations))
	}
	b.ReportMetric(mismatches, "raw-mismatches")
	b.ReportMetric(confirmed, "confirmed-violations")
}
