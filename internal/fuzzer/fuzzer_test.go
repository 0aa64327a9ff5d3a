package fuzzer_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func TestViolationRecordConsistency(t *testing.T) {
	cfg := fuzzer.QuickConfig(1, 20)
	cfg.StopOnFirstViolation = true
	res := runCampaign(t, "Baseline", cfg)
	if len(res.Violations) == 0 {
		t.Fatalf("no violation found")
	}
	v := res.Violations[0]
	if v.TraceA.Equal(v.TraceB) {
		t.Errorf("violation traces are equal")
	}
	// The recorded pair must be contract-equivalent: re-verify with a
	// fresh model.
	inA, inB, err := v.Inputs()
	if err != nil {
		t.Fatal(err)
	}
	md := contract.NewModel(contract.CTSeq, v.Program, v.Sandbox)
	trA, _ := md.Collect(inA)
	trB, _ := md.Collect(inB)
	if !trA.Equal(trB) {
		t.Errorf("violation inputs are not contract-equivalent")
	}
	if !trA.Equal(v.CTrace) {
		t.Errorf("recorded contract trace does not match")
	}
	if v.Defense != "Baseline" || v.Contract != "CT-SEQ" {
		t.Errorf("metadata wrong: %q %q", v.Defense, v.Contract)
	}
}

func TestCampaignAggregation(t *testing.T) {
	ccfg := fuzzer.CampaignConfig{Base: fuzzer.QuickConfig(1, 8), Instances: 3}
	res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 3 {
		t.Fatalf("instances = %d", len(res.Instances))
	}
	sum := 0
	for _, r := range res.Instances {
		sum += r.TestCases
	}
	if sum != res.TestCases {
		t.Errorf("test case aggregation wrong: %d != %d", sum, res.TestCases)
	}
	if res.Throughput() <= 0 {
		t.Errorf("throughput = %f", res.Throughput())
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	ccfg := fuzzer.CampaignConfig{Base: fuzzer.QuickConfig(1, 4), Instances: 0}
	if _, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg}); err == nil {
		t.Errorf("zero instances accepted")
	}
}

// TestNewRejectsBadConfig checks the validation every campaign entry point
// (engine.RunCampaign, Workspace.Reset) runs first.
func TestNewRejectsBadConfig(t *testing.T) {
	good := fuzzer.QuickConfig(1, 5)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	bad := good
	bad.Programs = 0
	if bad.Validate() == nil {
		t.Errorf("zero programs accepted")
	}
	bad = good
	bad.DefenseFactory = nil
	if bad.Validate() == nil {
		t.Errorf("nil defense factory accepted")
	}
	bad = good
	bad.Gen.Pages = 3
	if bad.Validate() == nil {
		t.Errorf("invalid generator config accepted")
	}
	bad = good
	bad.Exec.Core.ROBSize = 1
	if bad.Validate() == nil {
		t.Errorf("invalid core config accepted")
	}
}

// TestRunDeterministic runs one serial instance twice at the same seed: the
// two runs must do the same work and find the same violations.
func TestRunDeterministic(t *testing.T) {
	run := func() *fuzzer.Result {
		return runCampaignOn(t, "seed 42", fuzzer.QuickConfig(42, 10), 1)
	}
	r1, r2 := run(), run()
	if r1.TestCases != r2.TestCases || len(r1.Violations) != len(r2.Violations) {
		t.Errorf("identical seeds diverge: tests %d/%d violations %d/%d",
			r1.TestCases, r2.TestCases, len(r1.Violations), len(r2.Violations))
	}
	for i := range min(len(r1.Violations), len(r2.Violations)) {
		if r1.Violations[i].ProgramIndex != r2.Violations[i].ProgramIndex {
			t.Errorf("violation %d at different programs", i)
		}
	}
}

// TestCampaignInstancesDiffer checks that the instances of one campaign
// fuzz different programs: each instance's units draw from streams seeded
// by its own instance seed.
func TestCampaignInstancesDiffer(t *testing.T) {
	cfg := fuzzer.QuickConfig(1, 6)
	out, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: 2},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Instances {
		if r.Programs != cfg.Programs {
			t.Errorf("instance %d ran %d programs, want %d", i, r.Programs, cfg.Programs)
		}
	}
	a, b := out.Instances[0], out.Instances[1]
	if a.TestCases == b.TestCases && a.ValidationRuns == b.ValidationRuns &&
		a.RejectedMutants == b.RejectedMutants {
		t.Logf("instance counters look identical (possible, but suspicious)")
	}

	// Program p of instance i is generated from UnitSeed(InstanceSeed(seed,
	// i), p); the two instances must not share any program.
	ws := fuzzer.NewWorkspace()
	program := func(inst, p int) []isa.Inst {
		t.Helper()
		if err := ws.Reset(cfg, fuzzer.UnitSeed(fuzzer.InstanceSeed(cfg.Seed, inst), p)); err != nil {
			t.Fatal(err)
		}
		pc, err := ws.Case(context.Background(), nil, p)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(pc.Prog.Insts)
	}
	for p := range cfg.Programs {
		if slices.Equal(program(0, p), program(1, p)) {
			t.Errorf("instances 0 and 1 generated the same program %d", p)
		}
	}
}

// wedgeOnSquash is the baseline core with a defense whose squash cleanup
// never finishes: the first squash of a test input stalls fetch past the
// cycle budget, so the unit fails with uarch.ErrMaxCycles. The boot
// workload is straight-line code and never squashes.
type wedgeOnSquash struct{ uarch.NopDefense }

func (wedgeOnSquash) Name() string                  { return "WedgeOnSquash" }
func (wedgeOnSquash) OnSquash([]*uarch.DynInst) int { return 1 << 40 }

// TestCampaignJoinsInstanceErrors checks that failing units don't discard
// the campaign: every failing unit's error is joined, the other units still
// run, and the partial result is returned alongside.
func TestCampaignJoinsInstanceErrors(t *testing.T) {
	cfg := fuzzer.QuickConfig(1, 3)
	cfg.DefenseFactory = func() uarch.Defense { return wedgeOnSquash{} }
	out, err := engine.RunCampaign(context.Background(), engine.Config{
		Campaign: fuzzer.CampaignConfig{Base: cfg, Instances: 3},
		Workers:  2,
	})
	if err == nil {
		t.Fatal("failing units reported no error")
	}
	if !errors.Is(err, uarch.ErrMaxCycles) {
		t.Errorf("joined error lost the unit's cause: %v", err)
	}
	if out == nil {
		t.Fatal("no partial result alongside the error")
	}
	for i, r := range out.Instances {
		if want := fmt.Sprintf("engine: unit (%d,", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
		if r.Programs != cfg.Programs {
			t.Errorf("instance %d ran %d programs, want %d: a failing unit stopped its worker", i, r.Programs, cfg.Programs)
		}
	}
}

// TestCampaignPartialResultsOnCancel checks end-to-end cancellation of a
// multi-instance campaign: a cancelled context stops promptly and the work
// done so far is returned.
func TestCampaignPartialResultsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ccfg := fuzzer.CampaignConfig{Base: fuzzer.QuickConfig(1, 500), Instances: 2}
	var res *fuzzer.CampaignResult
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: 2})
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not stop within 10s of cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res == nil || res.TestCases == 0 {
		t.Fatalf("expected partial results, got %+v", res)
	}
}

// TestMutantRegistersFollowContract: mutants vary the registers a contract
// cannot see — under CT-SEQ some mutant differs from its class's first input
// in a register — and none under ARCH-SEQ, whose trace holds the initial
// register file.
func TestMutantRegistersFollowContract(t *testing.T) {
	for _, c := range []contract.Contract{contract.CTSeq, contract.ArchSeq} {
		cfg := fuzzer.QuickConfig(1, 1)
		cfg.Contract = c
		ws := fuzzer.NewWorkspace()
		if err := ws.Reset(cfg, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		varied := 0
		for p := 0; p < 10; p++ {
			pc, err := ws.Case(context.Background(), nil, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, cls := range pc.Classes {
				for _, in := range cls.Inputs[1:] {
					if in.Regs != cls.Inputs[0].Regs {
						varied++
					}
				}
			}
		}
		if want := !c.ObserveInitRegs; (varied > 0) != want {
			t.Errorf("%s: %d inputs vary a register of their class, want some: %v", c.Name, varied, want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &fuzzer.Result{}
	if _, ok := r.FirstDetection(); ok {
		t.Errorf("empty result has a detection time")
	}
	if r.Throughput() != 0 {
		t.Errorf("empty result throughput nonzero")
	}
}

// TestStrategyNaiveCampaign exercises the Naive path end to end, through
// the executors of one and of two workers: every Naive start simulates
// the boot workload.
func TestStrategyNaiveCampaign(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fuzzer.QuickConfig(1, 6)
			cfg.Exec.Strategy = executor.StrategyNaive
			res := runCampaignOn(t, "Naive", cfg, workers)
			// Validation replays (three runs per validation) intentionally
			// reuse a captured context without a fresh startup — Definition
			// 2.1 requires the identical-µ replay — so they count as test
			// cases but not starts.
			if want := res.TestCases - 3*res.ValidationRuns; res.Metrics.Starts != want {
				t.Errorf("Naive must start the simulator per fuzzing test case: %d starts, want %d (%d tests, %d validations)",
					res.Metrics.Starts, want, res.TestCases, res.ValidationRuns)
			}
			if res.Metrics.BootRuns != res.Metrics.Starts {
				t.Errorf("Naive: %d boots for %d starts, want one per start", res.Metrics.BootRuns, res.Metrics.Starts)
			}
		})
	}
}

// TestGeneratorExecutorIntegration runs generated programs through both
// engines at a defense other than baseline, exercising the whole stack.
func TestGeneratorExecutorIntegration(t *testing.T) {
	cfg := fuzzer.QuickConfig(5, 10)
	cfg.DefenseFactory = func() uarch.Defense { return uarch.NopDefense{} }
	cfg.Gen = generator.DefaultConfig()
	cfg.Gen.Pages = 4
	runCampaign(t, "NopDefense, 4 pages", cfg)
}
