package executor

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
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
	if len(tr.L1D) == 0 {
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
	if got := e.Metrics().Starts; got != 1 {
		t.Errorf("Opt started the simulator %d times for one program", got)
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
	if got := e.Metrics().Starts; got != 2 {
		t.Errorf("Naive started the simulator %d times for two inputs", got)
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
	if t1.Hash() != t2.Hash() {
		t.Errorf("equal traces must hash equal")
	}
}

func TestValidationPairSymmetricBase(t *testing.T) {
	prog, sb, in, in2 := genProgram(6)
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	// A pair of identical inputs must always validate as equal.
	trA, trB, err := e.RunValidationPair(in, in.Clone())
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
			if len(tr.L1D) == 0 || tr.L1I != nil {
				t.Errorf("%v: wrong sections populated", format)
			}
		case FormatL1DTLBL1I:
			if len(tr.L1I) == 0 {
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

// TestBootWithoutProgramLeavesDefinedState: a boot that runs while no test
// program is loaded must not leave the boot program and its sandbox mapped
// — the core ends in a defined empty state and a later LoadProgram works
// from scratch.
func TestBootWithoutProgramLeavesDefinedState(t *testing.T) {
	e := New(testConfig(StrategyOpt, PrimeFill), nil)
	if err := e.startup(); err != nil { // boots with e.prog == nil
		t.Fatal(err)
	}
	if e.core.Program() != nil {
		t.Fatalf("boot program left loaded after a no-program startup")
	}
	if _, err := e.Run(isa.NewInput(isa.Sandbox{Pages: 1})); err == nil {
		t.Fatalf("Run succeeded against the leaked boot state")
	}
	prog, sb, in, _ := genProgram(23)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.L1D) == 0 {
		t.Errorf("post-recovery run produced an empty trace")
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
	// test touched.
	if len(fill.L1D) <= len(inval.L1D) {
		t.Errorf("primed snapshot (%d lines) not larger than clean snapshot (%d lines)",
			len(fill.L1D), len(inval.L1D))
	}
}

func TestUTraceDiffRendering(t *testing.T) {
	a := &UTrace{L1D: []uint64{0x100, 0x200}, TLB: []uint64{1}}
	b := &UTrace{L1D: []uint64{0x100, 0x300}, TLB: []uint64{2}}
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

// TestUTraceHashEqualProperty: Equal traces hash equal; single-element
// perturbations break equality.
func TestUTraceHashEqualProperty(t *testing.T) {
	prop := func(l1d []uint64, tlb []uint64, bp uint64) bool {
		a := &UTrace{L1D: append([]uint64(nil), l1d...), TLB: append([]uint64(nil), tlb...), BPDigest: bp}
		b := &UTrace{L1D: append([]uint64(nil), l1d...), TLB: append([]uint64(nil), tlb...), BPDigest: bp}
		if !a.Equal(b) || a.Hash() != b.Hash() {
			return false
		}
		if len(l1d) > 0 {
			b.L1D[0]++
			if a.Equal(b) {
				return false
			}
			b.L1D[0]--
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
// contributes nothing (its features are constant noise).
func TestCoverageCollection(t *testing.T) {
	prog, sb, inA, inB := genProgram(3)
	cfg := testConfig(StrategyOpt, PrimeFill)
	cfg.Coverage = true
	e := New(cfg, nil)
	if e.Coverage() == nil {
		t.Fatalf("coverage-enabled executor returned a nil map")
	}
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	// LoadProgram under Opt simulates the boot workload; with boot features
	// suppressed the map must still be empty here.
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

// TestCoverageDeterministicAcrossExecutors: two executors running the same
// program and inputs from fresh boots record identical feature sets — the
// unit-level property engine determinism relies on.
func TestCoverageDeterministicAcrossExecutors(t *testing.T) {
	prog, sb, inA, inB := genProgram(9)
	run := func() uint64 {
		cfg := testConfig(StrategyOpt, PrimeFill)
		cfg.Coverage = true
		e := New(cfg, nil)
		e.EnableBootCheckpoint()
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
