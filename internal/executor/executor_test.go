package executor

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func testConfig(strategy Strategy, prime PrimeMode) Config {
	return Config{
		Core:      uarch.DefaultConfig(),
		Format:    FormatL1DTLB,
		Prime:     prime,
		Strategy:  strategy,
		BootInsts: 200,
	}
}

func genProgram(seed int64) (*isa.Program, isa.Sandbox, *isa.Input, *isa.Input) {
	cfg := generator.DefaultConfig()
	cfg.Seed = seed
	g := generator.New(cfg)
	return g.Program(), g.Sandbox(), g.Input(), g.Input()
}

func TestRunProducesTrace(t *testing.T) {
	prog, sb, in, _ := genProgram(1)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Format != FormatL1DTLB {
		t.Errorf("format = %v", tr.Format)
	}
	if len(tr.L1D.AppendLines(nil)) == 0 {
		t.Errorf("empty L1D snapshot after a primed run")
	}
	if tr.EndCycle == 0 {
		t.Errorf("no end cycle recorded")
	}
}

func TestRunBeforeLoadFails(t *testing.T) {
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if _, err := e.Run(isa.NewInput(isa.Sandbox{Pages: 1})); err == nil {
		t.Errorf("Run before LoadProgram succeeded")
	}
}

func TestOptStartsOncePerProgram(t *testing.T) {
	prog, sb, inA, inB := genProgram(2)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(inA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(inB); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Starts != 1 || m.BootRuns != 0 {
		t.Errorf("Opt: %d starts and %d boots for one program, want 1 start and no boot", m.Starts, m.BootRuns)
	}
}

// TestWarmStartAllocs pins the memory cost of a campaign worker's first
// start: a new executor and its first Opt LoadProgram allocate well under a
// megabyte, with no warm-up start before — no boot-sized instruction arena,
// no saved context.
func TestWarmStartAllocs(t *testing.T) {
	cfg := testConfig(StrategyOpt, PrimeFill)
	cfg.BootInsts = DefaultBootInsts
	prog, sb, _, _ := genProgram(2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New(cfg, uarch.NopDefense{})
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New + first LoadProgram: %d bytes", got)
	if got >= budget {
		t.Errorf("New + first LoadProgram allocated %d bytes, want < %d", got, budget)
	}
	if boots := e.Metrics().BootRuns; boots != 0 {
		t.Errorf("an Opt executor booted %d times", boots)
	}
}

func TestNaiveStartsPerInput(t *testing.T) {
	prog, sb, inA, inB := genProgram(3)
	e := New(testConfig(StrategyNaive, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(inA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(inB); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Starts != 2 || m.BootRuns != 2 {
		t.Errorf("Naive: %d starts and %d boots for two inputs, want 2 of each", m.Starts, m.BootRuns)
	}
}

func TestStartupDominatesNaive(t *testing.T) {
	prog, sb, in, _ := genProgram(4)
	cfg := testConfig(StrategyNaive, PrimeFill)
	cfg.BootInsts = DefaultBootInsts
	e := New(cfg, nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Startup <= m.Simulate {
		t.Errorf("Naive startup (%v) should dominate simulation (%v), as in the paper's Table 2",
			m.Startup, m.Simulate)
	}
}

// TestBootLeavesNoState pins what makes a start a reset: a Naive start
// simulates the boot workload after a warm run, yet leaves exactly a reset
// core's context, with the test program loaded again. If a change lets the
// boot warm the caches or predictors, this fails: the boot would then be
// state rather than only time, and Opt starts, which skip it, would begin
// from a different context than Naive ones.
func TestBootLeavesNoState(t *testing.T) {
	cfg := testConfig(StrategyNaive, PrimeFill)
	cfg.BootInsts = DefaultBootInsts
	e := New(cfg, nil)
	prog, sb, in, _ := genProgram(6)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	if err := e.startup(); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().BootRuns; got != 2 {
		t.Fatalf("two Naive starts ran %d boots, want 2", got)
	}
	reset := New(cfg, nil)
	reset.Core().ResetUarch()
	if !reflect.DeepEqual(savedUarch(reset.Core()), savedUarch(e.Core())) {
		t.Error("a Naive start's context differs from a reset core's: the boot left state behind")
	}
	if e.Core().Program() != prog {
		t.Error("the test program was not reloaded after the boot")
	}
}

// savedUarch returns a copy of c's micro-architectural context.
func savedUarch(c *uarch.Core) *uarch.UarchState {
	st := &uarch.UarchState{}
	c.SaveUarchInto(st)
	return st
}

// TestOptStartIsReset: an Opt start after a warm run leaves exactly a reset
// core's context, with the new program loaded and no boot simulated.
func TestOptStartIsReset(t *testing.T) {
	cfg := testConfig(StrategyOpt, PrimeFill)
	e := New(cfg, nil)
	progA, sb, in, _ := genProgram(6)
	if err := e.LoadProgram(progA, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	progB, sbB, _, _ := genProgram(7)
	if err := e.LoadProgram(progB, sbB); err != nil {
		t.Fatal(err)
	}
	reset := New(cfg, nil)
	reset.Core().ResetUarch()
	if !reflect.DeepEqual(savedUarch(reset.Core()), savedUarch(e.Core())) {
		t.Error("an Opt start's context differs from a reset core's: the previous program's run left state behind")
	}
	if e.Core().Program() != progB {
		t.Error("the new test program is not loaded after an Opt start")
	}
	if m := e.Metrics(); m.Starts != 2 || m.BootRuns != 0 {
		t.Errorf("two Opt programs: %d starts and %d boots, want 2 starts and no boot", m.Starts, m.BootRuns)
	}
}

// TestBootLengthInvisibleToTraces: the Naive boot is only time, so its
// length cannot change a trace. Executors booting 1 and DefaultBootInsts
// instructions give identical traces input for input. PrimeNone keeps the
// prime from hiding cache state a boot might leave behind.
func TestBootLengthInvisibleToTraces(t *testing.T) {
	run := func(bootInsts int) []*UTrace {
		cfg := testConfig(StrategyNaive, PrimeNone)
		cfg.BootInsts = bootInsts
		e := New(cfg, nil)
		var traces []*UTrace
		for seed := int64(1); seed <= 3; seed++ {
			prog, sb, inA, inB := genProgram(seed)
			if err := e.LoadProgram(prog, sb); err != nil {
				t.Fatal(err)
			}
			for _, in := range []*isa.Input{inA, inB, inA} {
				tr, err := e.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
		}
		if m := e.Metrics(); m.BootRuns != len(traces) {
			t.Fatalf("BootInsts %d: %d boots for %d Naive inputs", bootInsts, m.BootRuns, len(traces))
		}
		return traces
	}
	short, long := run(1), run(DefaultBootInsts)
	for i := range short {
		if !short[i].Equal(long[i]) {
			t.Fatalf("trace %d depends on the boot length:\n%s", i, short[i].Diff(long[i]))
		}
	}
}

// TestNaiveFirstInputMatchesOpt: Opt and Naive starts begin from the same
// reset context, the boot aside, so a program's first input yields the
// same trace under either strategy, even with no prime to hide a
// difference.
func TestNaiveFirstInputMatchesOpt(t *testing.T) {
	opt := New(testConfig(StrategyOpt, PrimeNone), nil)
	naive := New(testConfig(StrategyNaive, PrimeNone), nil)
	for seed := int64(1); seed <= 4; seed++ {
		prog, sb, in, _ := genProgram(seed)
		var traces [2]*UTrace
		for i, e := range []*Executor{opt, naive} {
			if err := e.LoadProgram(prog, sb); err != nil {
				t.Fatal(err)
			}
			tr, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		}
		if !traces[0].Equal(traces[1]) {
			t.Fatalf("program %d: first-input traces differ between Opt and Naive:\n%s",
				seed, traces[0].Diff(traces[1]))
		}
	}
	if opt.Metrics().BootRuns != 0 || naive.Metrics().BootRuns != 4 {
		t.Errorf("boots: Opt %d, Naive %d; want 0 and one per input (4)",
			opt.Metrics().BootRuns, naive.Metrics().BootRuns)
	}
}

// TestBootFailureReturned: a Naive boot that fails (20 000 boot
// instructions cannot finish in 1000 cycles) is returned from Run, leaves
// the executor un-started, and is simulated — and fails — again on retry.
func TestBootFailureReturned(t *testing.T) {
	cfg := testConfig(StrategyNaive, PrimeFill)
	cfg.BootInsts = DefaultBootInsts
	cfg.Core.MaxCycles = 1000
	e := New(cfg, nil)
	prog, sb, in, _ := genProgram(5)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	for try := 1; try <= 2; try++ {
		if _, err := e.Run(in); !errors.Is(err, uarch.ErrMaxCycles) {
			t.Fatalf("try %d: Run returned %v, want ErrMaxCycles", try, err)
		}
		if e.started {
			t.Fatalf("try %d: a failed start left the executor started", try)
		}
	}
	if m := e.Metrics(); m.Starts != 0 || m.BootRuns != 2 {
		t.Errorf("starts=%d boots=%d, want 0 starts and 2 failed boots", m.Starts, m.BootRuns)
	}
}

func TestSameInputSameTrace(t *testing.T) {
	prog, sb, in, _ := genProgram(5)
	e := New(testConfig(StrategyNaive, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	t1, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Equal(t2) {
		t.Errorf("identical Naive runs produced different traces:\n%s", t1.Diff(t2))
	}
}

func TestValidationPairSymmetricBase(t *testing.T) {
	prog, sb, in, in2 := genProgram(6)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	// A pair of identical inputs must always validate as equal.
	enc, _ := in.AppendBinary(nil)
	same := &isa.Input{}
	if err := same.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	trA, trB, err := e.RunValidationPair(in, same)
	if err != nil {
		t.Fatal(err)
	}
	if !trA.Equal(trB) {
		t.Errorf("identical inputs differ under validation:\n%s", trA.Diff(trB))
	}
	_ = in2
}

func TestTraceFormats(t *testing.T) {
	// A fixed program with both memory accesses and a branch, so every
	// trace format has content.
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),
		isa.CmpImm(1, 0),
		isa.Branch(isa.CondNE, 4),
		isa.Store(0, 64, 1, 8),
		isa.Nop(),
	}}
	in := isa.NewInput(sb)
	in.Mem.SetByte(0, 1)
	for _, format := range []TraceFormat{FormatL1DTLB, FormatL1DTLBL1I, FormatBPState, FormatMemOrder, FormatBranchOrder} {
		cfg := testConfig(StrategyOpt, PrimeFill)
		cfg.Format = format
		e := New(cfg, nil)
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		switch format {
		case FormatL1DTLB:
			if len(tr.L1D.AppendLines(nil)) == 0 || tr.L1I.AppendLines(nil) != nil {
				t.Errorf("%v: wrong sections populated", format)
			}
		case FormatL1DTLBL1I:
			if len(tr.L1I.AppendLines(nil)) == 0 {
				t.Errorf("%v: no L1I section", format)
			}
		case FormatBPState:
			if tr.BPDigest == 0 {
				t.Errorf("%v: zero BP digest", format)
			}
		case FormatMemOrder:
			if len(tr.MemOrder) == 0 {
				t.Errorf("%v: empty access order", format)
			}
		case FormatBranchOrder:
			if len(tr.BranchOrder) == 0 {
				t.Errorf("%v: empty branch order", format)
			}
		}
	}
}

// TestIncrementalPrimeMatchesFullPrime runs the same program and inputs
// under the default incremental prime and under Config.FullPrime, for both
// prime modes and with the Opt strategy (so later inputs see exactly the
// state earlier inputs dirtied). Every trace must be identical: the
// incremental prime is a pure constant-factor optimization.
func TestIncrementalPrimeMatchesFullPrime(t *testing.T) {
	for _, mode := range []PrimeMode{PrimeFill, PrimeInvalidate} {
		prog, sb, inA, inB := genProgram(21)
		inputs := []*isa.Input{inA, inB, inA, inB, inA}
		run := func(full bool) []*UTrace {
			cfg := testConfig(StrategyOpt, mode)
			cfg.FullPrime = full
			e := New(cfg, nil)
			if err := e.LoadProgram(prog, sb); err != nil {
				t.Fatal(err)
			}
			var trs []*UTrace
			for _, in := range inputs {
				tr, err := e.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				trs = append(trs, tr)
			}
			return trs
		}
		fullTr, incrTr := run(true), run(false)
		for i := range fullTr {
			if !fullTr[i].Equal(incrTr[i]) {
				t.Errorf("%v input %d: incremental prime diverged from full prime:\n%s",
					mode, i, fullTr[i].Diff(incrTr[i]))
			}
		}
	}
}

// TestMetricsPrimeBucket: priming time is attributed to Metrics.Prime, not
// folded into Simulate, and survives the Add/Minus snapshot accounting.
func TestMetricsPrimeBucket(t *testing.T) {
	prog, sb, in, _ := genProgram(22)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	before := e.Metrics()
	for i := 0; i < 3; i++ {
		if _, err := e.Run(in); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics().Minus(before)
	if m.Prime <= 0 {
		t.Errorf("PrimeFill runs recorded no Prime time: %+v", m)
	}
	if m.Simulate <= 0 {
		t.Errorf("no Simulate time recorded: %+v", m)
	}
	var sum Metrics
	sum.Add(before)
	sum.Add(m)
	if sum.Prime != e.Metrics().Prime {
		t.Errorf("Add/Minus round trip lost Prime time")
	}
}

func TestPrimeModesDiffer(t *testing.T) {
	prog, sb, in, _ := genProgram(8)
	runWith := func(p PrimeMode) *UTrace {
		e := New(testConfig(StrategyNaive, p), nil)
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	fill := runWith(PrimeFill)
	inval := runWith(PrimeInvalidate)
	// A primed cache holds conflict lines; a clean one holds only what the
	// test touched. Both sections store only the sets the case changed, so
	// the comparison is on their expansions.
	nFill, nInval := len(fill.L1D.AppendLines(nil)), len(inval.L1D.AppendLines(nil))
	if nFill <= nInval {
		t.Errorf("primed snapshot (%d lines) not larger than clean snapshot (%d lines)", nFill, nInval)
	}
}

// cacheSection returns the trace section of a default-geometry L1D, starting
// empty, after lines are installed in order.
func cacheSection(lines ...uint64) mem.CacheDelta {
	c := mem.NewCache(uarch.DefaultConfig().Hier.L1D)
	for _, a := range lines {
		c.Install(a)
	}
	var d mem.CacheDelta
	c.DeltaInto(&d)
	return d
}

func TestUTraceDiffRendering(t *testing.T) {
	a := &UTrace{L1D: cacheSection(0x100, 0x200), TLB: []uint64{1}}
	b := &UTrace{L1D: cacheSection(0x100, 0x300), TLB: []uint64{2}}
	d := a.Diff(b)
	for _, want := range []string{"0x200", "0x300", "L1D-cache tags", "D-TLB pages"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if a.Diff(a) != "traces identical\n" {
		t.Errorf("self-diff not identical")
	}
}

// TestUTraceEqualProperty: traces built alike are Equal, a clone is Equal to
// its original, and two cache sections are Equal exactly when they expand to
// the same lines; a changed TLB element or BP digest breaks equality.
func TestUTraceEqualProperty(t *testing.T) {
	prop := func(l1d []uint64, tlb []uint64, bp uint64, drop uint8) bool {
		a := &UTrace{L1D: cacheSection(l1d...), TLB: append([]uint64(nil), tlb...), BPDigest: bp}
		b := &UTrace{L1D: cacheSection(l1d...), TLB: append([]uint64(nil), tlb...), BPDigest: bp}
		if !a.Equal(b) || !b.Equal(a) {
			return false
		}
		if c := a.Clone(); !c.Equal(a) || !a.Equal(c) {
			return false
		}
		if len(l1d) > 0 {
			// Leave one install out: equal exactly when the expansions are.
			short := slices.Delete(slices.Clone(l1d), int(drop)%len(l1d), int(drop)%len(l1d)+1)
			b.L1D = cacheSection(short...)
			same := slices.Equal(a.L1D.AppendLines(nil), b.L1D.AppendLines(nil))
			if a.Equal(b) != same || b.Equal(a) != same {
				return false
			}
			b.L1D = a.L1D.Clone()
		}
		if len(tlb) > 0 {
			b.TLB[len(tlb)-1]++
			if a.Equal(b) {
				return false
			}
			b.TLB[len(tlb)-1]--
		}
		b.BPDigest++
		return !a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestValidationPairDeterministic: RunValidationPair is reproducible for
// the same inputs and program (the analysis layer depends on this when it
// replays with logging enabled).
func TestValidationPairDeterministic(t *testing.T) {
	prog, sb, a, b := genProgram(11)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	a1, b1, err := e.RunValidationPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A second executor, same config: identical outcome.
	e2 := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e2.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	a2, b2, err := e2.RunValidationPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) || !b1.Equal(b2) {
		t.Errorf("validation pair not reproducible across executors")
	}
}

// TestCoverageCollection: an executor built with Coverage records features
// while running inputs, ResetCoverage clears them, and the boot workload
// of a Naive start contributes nothing (its features are constant noise).
func TestCoverageCollection(t *testing.T) {
	prog, sb, inA, inB := genProgram(3)
	cfg := testConfig(StrategyNaive, PrimeFill)
	cfg.Coverage = true
	e := New(cfg, nil)
	if e.Coverage() == nil {
		t.Fatalf("coverage-enabled executor returned a nil map")
	}
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if err := e.startup(); err != nil {
		t.Fatal(err)
	}
	// The start simulated the boot workload; with boot features suppressed
	// the map must still be empty here.
	if e.Metrics().BootRuns != 1 {
		t.Fatalf("a Naive start ran %d boots, want 1", e.Metrics().BootRuns)
	}
	if !e.Coverage().Empty() {
		t.Errorf("boot workload leaked %d coverage features", e.Coverage().Count())
	}
	if _, err := e.Run(inA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(inB); err != nil {
		t.Fatal(err)
	}
	if e.Coverage().Empty() {
		t.Errorf("no coverage recorded after two runs")
	}
	e.ResetCoverage()
	if !e.Coverage().Empty() {
		t.Errorf("ResetCoverage left features behind")
	}
}

// TestCoverageDisabledReturnsNil: the default configuration collects
// nothing and exposes no map.
func TestCoverageDisabledReturnsNil(t *testing.T) {
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if e.Coverage() != nil {
		t.Errorf("coverage map present without Config.Coverage")
	}
	e.ResetCoverage() // must be a no-op, not a panic
}

// TestCoverageDeterministicAcrossExecutors: two executors running the
// same program and inputs record identical feature sets — the
// unit-level property engine determinism relies on.
func TestCoverageDeterministicAcrossExecutors(t *testing.T) {
	prog, sb, inA, inB := genProgram(9)
	run := func() uint64 {
		cfg := testConfig(StrategyOpt, PrimeFill)
		cfg.Coverage = true
		e := New(cfg, uarch.NopDefense{})
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatal(err)
		}
		for _, in := range []*isa.Input{inA, inB} {
			if _, err := e.Run(in); err != nil {
				t.Fatal(err)
			}
		}
		return e.Coverage().Digest()
	}
	if run() != run() {
		t.Errorf("identical executions recorded different coverage")
	}
}

// TestRunLeavesInputUntouched: the core executes on a copy-on-write view of
// the input, so Run and RunValidationPair — which replays the same input
// objects three times and relies on them being unchanged — must leave an
// input bit-identical and must not write a single page into it, however
// many stores the program commits.
func TestRunLeavesInputUntouched(t *testing.T) {
	cfg := generator.DefaultConfig()
	cfg.Seed, cfg.Pages = 5, 128
	g := generator.New(cfg)
	sb := g.Sandbox()
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	stored := 0 // pages the core wrote privately, over all programs
	for p := 0; p < 20; p++ {
		prog := g.Program()
		a, b := g.Input(), g.Input()
		wantA, wantB := a.Mem.Dense(), b.Mem.Dense()
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(a); err != nil {
			t.Fatal(err)
		}
		stored += e.Core().Image().Materialized()
		if _, _, err := e.RunValidationPair(a, b); err != nil {
			t.Fatal(err)
		}
		if n := a.Mem.Materialized() + b.Mem.Materialized(); n != 0 {
			t.Fatalf("program %d: executing materialized %d page(s) into the inputs", p, n)
		}
		if !bytes.Equal(a.Mem.Dense(), wantA) || !bytes.Equal(b.Mem.Dense(), wantB) {
			t.Fatalf("program %d: executing modified an input", p)
		}
	}
	if stored == 0 {
		t.Fatal("no program committed a store; the test checked nothing")
	}
}

// TestRunSteadyStateAllocs pins a steady-state Run as allocation-free in the
// widest cache trace format: priming, simulation and extracting all three
// snapshot sections reuse the structures' preallocated state and the
// recycled trace's buffers.
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, prime := range []PrimeMode{PrimeFill, PrimeInvalidate} {
		cfg := testConfig(StrategyOpt, prime)
		cfg.Format = FormatL1DTLBL1I
		e := New(cfg, nil)
		gcfg := generator.DefaultConfig()
		gcfg.Seed = 11
		g := generator.New(gcfg)
		prog, sb := g.Program(), g.Sandbox()
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatal(err)
		}
		warm := g.Input()
		// Warm the executor (start, template capture, trace freelist)
		// before measuring; the steady-state loop is what campaigns run
		// millions of times.
		for i := 0; i < 3; i++ {
			tr, err := e.Run(warm)
			if err != nil {
				t.Fatal(err)
			}
			e.ReleaseTrace(tr)
		}
		in := g.Input()
		allocs := testing.AllocsPerRun(50, func() {
			tr, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			e.ReleaseTrace(tr)
		})
		if allocs != 0 {
			t.Errorf("prime %d: steady-state Run allocates %.1f objects per case, want 0", prime, allocs)
		}

		// A clone costs the trace struct plus one buffer per non-empty
		// section: the changed-set bitmap shares its section's buffer.
		tr, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = tr.Clone() }); allocs > 4 {
			t.Errorf("prime %d: UTrace.Clone allocates %.1f objects, want <= 4 (struct, L1D, TLB, L1I)", prime, allocs)
		}
		e.ReleaseTrace(tr)
	}
}
