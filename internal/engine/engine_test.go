package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// engineConfig returns a small baseline campaign that reliably finds
// CT-SEQ violations (the insecure out-of-order core leaks Spectre-v1
// within a handful of programs).
func engineConfig(seed int64, instances, programs int) Config {
	return Config{
		Campaign: fuzzer.CampaignConfig{
			Instances: instances,
			Base: fuzzer.Config{
				Contract: contract.CTSeq,
				Gen:      generator.DefaultConfig(),
				Exec: executor.Config{
					Core:      uarch.DefaultConfig(),
					Format:    executor.FormatL1DTLB,
					Prime:     executor.PrimeFill,
					Strategy:  executor.StrategyOpt,
					BootInsts: 500,
				},
				DefenseFactory:  func() uarch.Defense { return uarch.NopDefense{} },
				Seed:            seed,
				Programs:        programs,
				BaseInputs:      5,
				MutantsPerInput: 4,
			},
		},
	}
}

// violationKey identifies a violation by its deterministic coordinates and
// content (wall-clock stamps excluded).
func violationKey(inst int, v *fuzzer.Violation) string {
	a, b, err := v.Inputs()
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("i%d p%d regsA=%v regsB=%v memEq=%v trEq=%v",
		inst, v.ProgramIndex, a.Regs, b.Regs,
		bytes.Equal(a.Mem.Dense(), b.Mem.Dense()), v.TraceA.Equal(v.TraceB))
}

func campaignKeys(t *testing.T, res *fuzzer.CampaignResult) []string {
	t.Helper()
	var keys []string
	for i, inst := range res.Instances {
		if inst == nil {
			t.Fatalf("instance %d result missing", i)
		}
		for _, v := range inst.Violations {
			keys = append(keys, violationKey(i, v))
		}
	}
	return keys
}

// TestEngineDeterministicAcrossWorkerCounts is the engine's core
// guarantee: an identical seed yields an identical violation set whether
// the campaign runs on one worker or eight.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	runAt := func(workers int) []string {
		cfg := engineConfig(1, 2, 12)
		cfg.Workers = workers
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return campaignKeys(t, res)
	}
	one := runAt(1)
	eight := runAt(8)
	if len(one) == 0 {
		t.Fatalf("campaign found no violations; the determinism check needs a leaky target")
	}
	if len(one) != len(eight) {
		t.Fatalf("violation sets differ in size: workers=1 found %d, workers=8 found %d", len(one), len(eight))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Errorf("violation %d differs:\n  workers=1: %s\n  workers=8: %s", i, one[i], eight[i])
		}
	}
}

// TestEngineStopOnFirstDeterministic checks the deterministic cut under
// StopOnFirstViolation: the surviving violation must come from the lowest
// violating program index regardless of scheduling.
func TestEngineStopOnFirstDeterministic(t *testing.T) {
	runAt := func(workers int) []string {
		cfg := engineConfig(5, 1, 20)
		cfg.Campaign.Base.StopOnFirstViolation = true
		cfg.Workers = workers
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 1 {
			t.Fatalf("stop-on-first kept %d violations", len(res.Violations))
		}
		return campaignKeys(t, res)
	}
	one := runAt(1)
	six := runAt(6)
	if len(one) != 1 {
		t.Fatalf("expected exactly one violation, got %d", len(one))
	}
	if one[0] != six[0] {
		t.Errorf("stop-on-first violation differs:\n  workers=1: %s\n  workers=6: %s", one[0], six[0])
	}
}

// TestEngineCancellation checks that a cancelled context stops a campaign
// promptly and still returns the partial results accumulated so far.
func TestEngineCancellation(t *testing.T) {
	cfg := engineConfig(1, 4, 400) // far more work than the deadline allows
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *fuzzer.CampaignResult
	var err error
	go func() {
		defer close(done)
		res, err = RunCampaign(ctx, cfg)
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not stop within 10s of cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled in the joined error, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial results")
	}
	if res.TestCases == 0 {
		t.Errorf("expected some test cases before cancellation")
	}
	t.Logf("cancelled after %d test cases, %d violations", res.TestCases, len(res.Violations))
}

// TestEngineDeadline exercises the deadline path end to end.
func TestEngineDeadline(t *testing.T) {
	cfg := engineConfig(1, 4, 400)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunCampaign(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if res == nil {
		t.Fatal("no partial results")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline overshoot: %v", elapsed)
	}
}

// TestEngineMatchesCounters cross-checks the aggregate bookkeeping.
func TestEngineMatchesCounters(t *testing.T) {
	cfg := engineConfig(3, 3, 5)
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 3 {
		t.Fatalf("instances = %d", len(res.Instances))
	}
	sumTests, sumPrograms := 0, 0
	for _, inst := range res.Instances {
		sumTests += inst.TestCases
		sumPrograms += inst.Programs
	}
	if sumTests != res.TestCases {
		t.Errorf("test-case aggregation wrong: %d != %d", sumTests, res.TestCases)
	}
	if sumPrograms != 15 {
		t.Errorf("programs run = %d, want 15", sumPrograms)
	}
	if res.Throughput() <= 0 {
		t.Errorf("throughput = %f", res.Throughput())
	}
}

// TestEngineBootsOnlyUnderNaive checks the start economics of worker
// executors: an Opt campaign starts once per program and never simulates
// the boot workload, however many workers run it; a Naive campaign boots
// on every start, which is the per-input cost Naive exists to measure.
func TestEngineBootsOnlyUnderNaive(t *testing.T) {
	for _, c := range []struct {
		strategy  executor.Strategy
		instances int
		programs  int
	}{
		{executor.StrategyOpt, 2, 10},
		{executor.StrategyNaive, 2, 3},
	} {
		cfg := engineConfig(5, c.instances, c.programs)
		cfg.Workers = 4
		cfg.Campaign.Base.Exec.Strategy = c.strategy
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		boots, starts := 0, 0
		for _, inst := range res.Instances {
			boots += inst.Metrics.BootRuns
			starts += inst.Metrics.Starts
		}
		switch c.strategy {
		case executor.StrategyOpt:
			if programs := c.instances * c.programs; boots != 0 || starts != programs {
				t.Errorf("Opt: %d boots, %d starts; want 0 boots and one start per program (%d)", boots, starts, programs)
			}
		case executor.StrategyNaive:
			if boots != starts || starts == 0 {
				t.Errorf("Naive: %d boots, %d starts; want one boot per start", boots, starts)
			}
		}
	}
}

// TestEngineRandomStrategyMatchesDefault: naming the random strategy
// explicitly changes nothing — same code path, same violation set as the
// default (seed-compatible) configuration.
func TestEngineRandomStrategyMatchesDefault(t *testing.T) {
	def, err := RunCampaign(context.Background(), engineConfig(1, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(1, 2, 10)
	cfg.Strategy = StrategyRandom
	named, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := campaignKeys(t, def), campaignKeys(t, named)
	if len(a) == 0 {
		t.Fatalf("no violations; the equivalence check needs a leaky target")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("-strategy=random diverged from the default:\n%v\nvs\n%v", a, b)
	}
}

// TestEngineCorpusDeterministicAcrossWorkerCounts is the corpus-strategy
// determinism guarantee: epochs freeze the corpus at schedule-independent
// barriers and admission scans in (instance, program) order, so a fixed
// seed yields the identical violation set at any worker count.
func TestEngineCorpusDeterministicAcrossWorkerCounts(t *testing.T) {
	runAt := func(workers int) []string {
		cfg := engineConfig(1, 2, 16)
		cfg.Workers = workers
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = 4
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return campaignKeys(t, res)
	}
	one := runAt(1)
	four := runAt(4)
	eight := runAt(8)
	if len(one) == 0 {
		t.Fatalf("corpus campaign found no violations; the determinism check needs a leaky target")
	}
	if len(one) != len(four) || len(one) != len(eight) {
		t.Fatalf("violation sets differ in size: workers=1/4/8 found %d/%d/%d",
			len(one), len(four), len(eight))
	}
	for i := range one {
		if one[i] != four[i] || one[i] != eight[i] {
			t.Errorf("violation %d differs across worker counts:\n  1: %s\n  4: %s\n  8: %s",
				i, one[i], four[i], eight[i])
		}
	}
}

// TestWorkersBuildSlotsOnce: each worker builds its executor on first use
// and keeps it across corpus epochs, so a campaign calls the defense
// factory once for its name and once per worker — not once per epoch or
// per unit.
func TestWorkersBuildSlotsOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := engineConfig(1, 2, 16)
		cfg.Workers = workers
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = 4
		var built atomic.Int64
		cfg.Campaign.Base.DefenseFactory = func() uarch.Defense {
			built.Add(1)
			return uarch.NopDefense{}
		}
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Totals().Metrics; m.Quarantined+m.TimedOut != 0 {
			t.Fatalf("workers=%d: a unit poisoned its worker: %+v", workers, m)
		}
		if got, want := built.Load(), int64(1+workers); got != want {
			t.Errorf("workers=%d: defense factory called %d times over 4 epochs, want %d (name + one per worker)",
				workers, got, want)
		}
	}
}

// TestEngineCorpusStopOnFirstDeterministic: the stop-on-first cut and the
// corpus admission cut agree, so even early-stopping corpus campaigns are
// schedule-independent.
func TestEngineCorpusStopOnFirstDeterministic(t *testing.T) {
	runAt := func(workers int) []string {
		cfg := engineConfig(3, 1, 20)
		cfg.Campaign.Base.StopOnFirstViolation = true
		cfg.Workers = workers
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = 4
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 1 {
			t.Fatalf("stop-on-first kept %d violations", len(res.Violations))
		}
		return campaignKeys(t, res)
	}
	one := runAt(1)
	six := runAt(6)
	if len(one) != 1 {
		t.Fatalf("expected exactly one violation, got %d", len(one))
	}
	if one[0] != six[0] {
		t.Errorf("stop-on-first violation differs:\n  workers=1: %s\n  workers=6: %s", one[0], six[0])
	}
}

// TestEngineCorpusCollectsCoverage: corpus campaigns surface the merged
// coverage signal on the instance results.
func TestEngineCorpusCollectsCoverage(t *testing.T) {
	cfg := engineConfig(1, 1, 8)
	cfg.Strategy = StrategyCorpus
	cfg.Epochs = 2
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Totals().Coverage
	if cov == nil || cov.Empty() {
		t.Fatalf("corpus campaign reported no coverage")
	}
	plain, err := RunCampaign(context.Background(), engineConfig(1, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Totals().Coverage != nil {
		t.Errorf("random campaign collected coverage; the paper reproductions must not pay for it")
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	cfg := engineConfig(1, 1, 4)
	cfg.Campaign.Instances = 0
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("zero instances accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Campaign.Base.Programs = 0
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("zero programs accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Campaign.Base.DefenseFactory = nil
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("nil defense factory accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Campaign.Base.Gen.Pages = 3
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("invalid generator config accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Campaign.Base.Exec.Core.ROBSize = 1
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("invalid core config accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Strategy = "genetic"
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("unknown strategy accepted")
	}
	cfg = engineConfig(1, 1, 4)
	cfg.Epochs = 3 // epochs without the corpus strategy
	if _, err := RunCampaign(context.Background(), cfg); err == nil {
		t.Errorf("epochs accepted without the corpus strategy")
	}
}
