package executor

import (
	"fmt"
	"sync"
	"time"

	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// PrimeMode selects how the caches are reset before each test case.
type PrimeMode int

// Prime modes (paper §3.2 C2 and §3.5).
const (
	// PrimeFill fills every L1D set (and the D-TLB) with out-of-sandbox
	// conflicting addresses by simulating the fill requests, so leaks show
	// through installs *and* evictions. The paper uses this for InvisiSpec
	// and STT; the extra simulated requests are why those campaigns run
	// slower than CleanupSpec/SpecLFB (Table 4).
	PrimeFill PrimeMode = iota
	// PrimeInvalidate resets caches through a direct simulator hook,
	// starting every test from a clean state (CleanupSpec, SpecLFB).
	PrimeInvalidate
	// PrimeNone leaves cache state untouched between inputs. No campaign
	// configuration uses it; the executor's boot and start tests do, so
	// that no prime hides state a start leaves behind.
	PrimeNone
)

var primeModeNames = [...]string{"fill", "invalidate", "none"}

// String names the mode.
func (m PrimeMode) String() string {
	if int(m) < len(primeModeNames) && m >= 0 {
		return primeModeNames[m]
	}
	return fmt.Sprintf("prime(%d)", int(m))
}

// Strategy selects the execution strategy.
type Strategy int

// Strategies (paper §3.2 C3).
const (
	// StrategyOpt starts the simulator once per test program and overwrites
	// registers and sandbox memory between inputs, amortizing startup and
	// carrying predictor state across inputs.
	StrategyOpt Strategy = iota
	// StrategyNaive restarts the simulator for every input, paying the
	// startup cost each time and starting from a fresh µarch context.
	StrategyNaive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == StrategyNaive {
		return "Naive"
	}
	return "Opt"
}

// Config configures an executor.
type Config struct {
	Core     uarch.Config
	Format   TraceFormat
	Prime    PrimeMode
	Strategy Strategy

	// Coverage enables speculation-coverage collection: the core records
	// squash events, speculation-window depths, defense-hook activations
	// and cache/TLB/LFB transition edges into a uarch.Coverage bitmap,
	// which the corpus generation strategy uses as its novelty signal.
	// Disabled (the default) the instrumentation costs one nil check per
	// event, keeping the paper's table reproductions unperturbed.
	Coverage bool

	// BootInsts is the length of the simulated SE-mode startup workload
	// (process loader, runtime init) executed on every Naive start, i.e.
	// once per input. It stands in for gem5's multi-second startup, which
	// the paper measures as 96% of Naive's per-test time; the boot program
	// runs through the full pipeline, so its cost scales with simulator
	// fidelity exactly as gem5's does. Opt starts never run it: the boot
	// ends in a reset and leaves no state, so under Opt it would only cost
	// time. Zero selects the default.
	BootInsts int

	// FullPrime disables the incremental dirty-set prime and runs the
	// reference full prime before every test case. The resulting state is
	// bit-identical either way (the determinism tests pin that), so this
	// exists only for regression pinning and A/B measurement.
	FullPrime bool
}

// DefaultBootInsts is the default startup workload length.
const DefaultBootInsts = 20000

// Metrics breaks down where executor time went (paper Table 2).
type Metrics struct {
	Startup      time.Duration // simulator start (boot workload)
	Prime        time.Duration // per-case cache/TLB priming
	Simulate     time.Duration // test-case simulation (excl. priming)
	TraceExtract time.Duration // µarch trace extraction (snapshots)
	Digest       time.Duration // always zero: traces are compared by content; kept for the unit-record codec
	Starts       int           // simulator starts
	BootRuns     int           // boot workloads actually simulated
	TestCases    int           // inputs executed

	// Truncations counts leakage-model runs cut off by contract.MaxSteps
	// before the program exited. The generator emits DAG programs, so any
	// non-zero count means test cases silently lost contract-trace coverage
	// — worth surfacing, never worth aborting a campaign over.
	Truncations int

	// Quarantined counts work units whose worker panicked and was isolated
	// by the engine (the unit's repro bundle lands in the checkpoint
	// directory; the campaign keeps going on a fresh executor), or that a
	// coordinator folded unrun after they lost four workers. TimedOut
	// counts units the -unit-timeout watchdog degraded the same way. Both
	// mean the campaign's results are partial: the counts flow to the CLI
	// summary and its resumable exit path.
	Quarantined int
	TimedOut    int

	// Distributed-campaign robustness counters (internal/dist). All zero on
	// a single-process run. Retries counts RPC attempts beyond the first
	// (client-side backoff retries, reported by workers in each exchange);
	// Evictions counts workers the coordinator evicted for a TTL of silence
	// or digest-invalid submissions; Reassigned counts units
	// whose lease expired or was revoked and that went back to the pending
	// pool; DuplicatesDropped counts unit results that arrived for
	// already-folded units (late or retransmitted leases) and were dropped
	// by the exactly-once fold. DegradedLocal is always zero: it counted
	// a coordinator's switches to running units itself, which it no longer
	// does; the field stays while the unit-record codec carries it.
	Retries           int
	Evictions         int
	Reassigned        int
	DuplicatesDropped int
	DegradedLocal     int
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Startup += other.Startup
	m.Prime += other.Prime
	m.Simulate += other.Simulate
	m.TraceExtract += other.TraceExtract
	m.Digest += other.Digest
	m.Starts += other.Starts
	m.BootRuns += other.BootRuns
	m.TestCases += other.TestCases
	m.Truncations += other.Truncations
	m.Quarantined += other.Quarantined
	m.TimedOut += other.TimedOut
	m.Retries += other.Retries
	m.Evictions += other.Evictions
	m.Reassigned += other.Reassigned
	m.DuplicatesDropped += other.DuplicatesDropped
	m.DegradedLocal += other.DegradedLocal
}

// Minus returns m - other, for snapshot-diff accounting of a long-lived
// executor (the engine attributes a worker's executor time to the work
// units it ran this way).
func (m Metrics) Minus(other Metrics) Metrics {
	return Metrics{
		Startup:      m.Startup - other.Startup,
		Prime:        m.Prime - other.Prime,
		Simulate:     m.Simulate - other.Simulate,
		TraceExtract: m.TraceExtract - other.TraceExtract,
		Digest:       m.Digest - other.Digest,
		Starts:       m.Starts - other.Starts,
		BootRuns:     m.BootRuns - other.BootRuns,
		TestCases:    m.TestCases - other.TestCases,
		Truncations:  m.Truncations - other.Truncations,
		Quarantined:  m.Quarantined - other.Quarantined,
		TimedOut:     m.TimedOut - other.TimedOut,

		Retries:           m.Retries - other.Retries,
		Evictions:         m.Evictions - other.Evictions,
		Reassigned:        m.Reassigned - other.Reassigned,
		DuplicatesDropped: m.DuplicatesDropped - other.DuplicatesDropped,
		DegradedLocal:     m.DegradedLocal - other.DegradedLocal,
	}
}

// Executor drives one simulator instance with one defense.
type Executor struct {
	cfg  Config
	core *uarch.Core

	prog    *isa.Program
	sb      isa.Sandbox
	started bool

	// valCP is the reusable context checkpoint of the validation replays:
	// every µarch-trace mismatch saves a full cache/TLB/predictor copy, so
	// the buffers are recycled instead of reallocated per validation.
	valCP *uarch.UarchState

	// traceFree recycles UTrace objects (and their snapshot buffers). Run
	// pops one per test case; the fuzzer hands traces back via ReleaseTrace
	// once a contract-equivalence class is compared, so the steady-state
	// execute→compare loop reuses a small working set of traces instead of
	// allocating cache-snapshot-sized buffers per case.
	traceFree []*UTrace

	met Metrics
}

// New builds an executor around a core configuration and defense. It
// panics on invalid configuration (campaign entry points validate).
func New(cfg Config, def uarch.Defense) *Executor {
	if cfg.BootInsts == 0 {
		cfg.BootInsts = DefaultBootInsts
	}
	e := &Executor{cfg: cfg, core: uarch.NewCore(cfg.Core, def)}
	if cfg.Coverage {
		e.core.SetCoverage(uarch.NewCoverage())
	}
	return e
}

// Coverage returns the live coverage map the core records into, or nil when
// coverage collection is disabled. Callers that need a stable snapshot
// should Clone it (the map keeps accumulating as the executor runs).
func (e *Executor) Coverage() *uarch.Coverage { return e.core.CoverageMap() }

// ResetCoverage clears the coverage map (no-op when disabled). The fuzzer
// resets per program case so every work unit reports only its own features.
func (e *Executor) ResetCoverage() {
	if cov := e.core.CoverageMap(); cov != nil {
		cov.Reset()
	}
}

// Core exposes the underlying core (analysis replays, tests).
func (e *Executor) Core() *uarch.Core { return e.core }

// Metrics returns the accumulated time breakdown.
func (e *Executor) Metrics() Metrics { return e.met }

// CountTruncations folds n leakage-model step-budget truncations into the
// metrics. The model side (fuzzer.ExecuteCase) reports them here because
// the executor's metrics are the channel the campaign driver attributes per
// unit: the engine diffs snapshots around each unit, so a count recorded
// anywhere else would be dropped.
func (e *Executor) CountTruncations(n int) { e.met.Truncations += n }

// LoadProgram installs a test program. Under the Opt strategy this is
// where the simulator starts (once per program).
func (e *Executor) LoadProgram(p *isa.Program, sb isa.Sandbox) error {
	if err := e.core.LoadTest(p, sb); err != nil {
		return err
	}
	e.prog = p
	e.sb = sb
	e.started = false
	if e.cfg.Strategy == StrategyOpt {
		if err := e.startup(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one input and returns its µarch trace. Under the Naive
// strategy the simulator restarts (fresh context) for every call; under
// Opt, registers and sandbox memory are overwritten in the running
// simulator and predictor state carries over.
func (e *Executor) Run(in *isa.Input) (*UTrace, error) {
	if e.prog == nil {
		return nil, fmt.Errorf("executor: Run before LoadProgram")
	}
	if e.cfg.Strategy == StrategyNaive || !e.started {
		if err := e.startup(); err != nil {
			return nil, err
		}
	}
	return e.runOnce(in)
}

// RunValidationPair replays two inputs from an *identical* captured
// micro-architectural context and returns their traces. This is the
// violation-validation step: Definition 2.1 requires the two runs to start
// from the same context µ, so a difference that only existed because the
// Opt strategy carried different predictor state into the two original
// runs disappears here. The context is warmed by one run of input a first,
// so the L2 and predictors are in a realistic (and identical) state for
// both measured runs.
func (e *Executor) RunValidationPair(a, b *isa.Input) (trA, trB *UTrace, err error) {
	_, _, trA, trB, err = e.runPair(a, b, false)
	return trA, trB, err
}

// RunLoggedPair is RunValidationPair with the simulator debug log enabled
// for the two measured runs, returning each run's log records too. The
// analysis package uses it to root-cause violations the way the paper
// parses gem5 debug logs (§3.3).
func (e *Executor) RunLoggedPair(a, b *isa.Input) (logA, logB []uarch.LogRec, trA, trB *UTrace, err error) {
	return e.runPair(a, b, true)
}

// runPair is the body of both pair replays. It starts the executor if it
// has not started (a fresh executor after LoadProgram under Naive), and the
// captured context goes into the reused valCP, so a steady-state validation
// allocates no checkpoint.
func (e *Executor) runPair(a, b *isa.Input, logged bool) (logA, logB []uarch.LogRec, trA, trB *UTrace, err error) {
	if e.prog == nil {
		return nil, nil, nil, nil, fmt.Errorf("executor: pair replay before LoadProgram")
	}
	if !e.started {
		if err := e.startup(); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	warm, err := e.runOnce(a)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	e.ReleaseTrace(warm)
	if e.valCP == nil {
		e.valCP = &uarch.UarchState{}
	}
	e.core.SaveUarchInto(e.valCP)
	if logged {
		e.core.Log.Enabled = true
		defer func() { e.core.Log.Enabled = false }()
	}
	trA, err = e.runOnce(a)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if logged {
		logA = append([]uarch.LogRec(nil), e.core.Log.Recs...)
	}
	e.core.RestoreUarch(e.valCP)
	trB, err = e.runOnce(b)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if logged {
		logB = append([]uarch.LogRec(nil), e.core.Log.Recs...)
	}
	return logA, logB, trA, trB, nil
}

func (e *Executor) runOnce(in *isa.Input) (*UTrace, error) {
	tp := time.Now()
	e.prime()
	t0 := time.Now()
	e.met.Prime += t0.Sub(tp)
	e.core.ResetForInput(in)
	err := e.core.Run()
	t1 := time.Now() // closes Simulate and opens TraceExtract
	e.met.Simulate += t1.Sub(t0)
	if err != nil {
		return nil, err
	}
	tr := e.extract()
	e.met.TraceExtract += time.Since(t1)
	e.met.TestCases++
	return tr, nil
}

// startup models the simulator start: a fresh micro-architectural context.
// Under the Naive strategy a start also simulates the boot workload through
// the full pipeline and resets again, so the boot leaves no state and only
// costs time. Naive models launching a fresh simulator process per input,
// and that per-input boot cost is what its experiments (Table 2/3)
// measure. Opt, which starts once per program, skips the boot.
//
// A boot failure is returned, not panicked: in a long-lived service a
// failing start must surface as that campaign's error, never as process
// death. The executor stays un-started, so a later call retries cleanly.
func (e *Executor) startup() error {
	t0 := time.Now()
	e.core.ResetUarch()
	if e.cfg.Strategy == StrategyNaive {
		if err := e.runBoot(); err != nil {
			return err
		}
		e.core.ResetUarch()
	}
	e.started = true
	e.met.Starts++
	e.met.Startup += time.Since(t0)
	return nil
}

// bootCache holds the deterministic SE-mode startup workloads, built once
// per length; campaigns run many executors concurrently, hence the lock.
var (
	bootMu    sync.Mutex
	bootCache = map[int]*isa.Program{}
)

func bootProgram(n int) *isa.Program {
	bootMu.Lock()
	defer bootMu.Unlock()
	if p, ok := bootCache[n]; ok {
		return p
	}
	p := &isa.Program{NumBlocks: 1}
	// Loader-like workload: walk memory, zero it, and maintain a checksum.
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			p.Insts = append(p.Insts, isa.ALUImm(isa.OpAdd, 1, 1, 64))
		case 1:
			p.Insts = append(p.Insts, isa.Store(1, 0, 2, 8))
		case 2:
			p.Insts = append(p.Insts, isa.Load(3, 1, 0, 8))
		case 3:
			p.Insts = append(p.Insts, isa.ALU(isa.OpXor, 2, 2, 3))
		default:
			p.Insts = append(p.Insts, isa.ALUImm(isa.OpAnd, 4, 4, 0xfff))
		}
	}
	bootCache[n] = p
	return p
}

// runBoot simulates the boot workload on the core, then reloads the test
// program it displaced.
func (e *Executor) runBoot() error {
	e.met.BootRuns++
	// The boot workload is identical for every start; its features are
	// noise, not signal, so coverage is suspended while it runs.
	if cov := e.core.CoverageMap(); cov != nil {
		e.core.SetCoverage(nil)
		defer e.core.SetCoverage(cov)
	}
	boot := bootProgram(e.cfg.BootInsts)
	bootSB := isa.Sandbox{Pages: 4}
	if err := e.core.LoadTest(boot, bootSB); err != nil {
		return fmt.Errorf("executor: boot program rejected: %w", err)
	}
	e.core.ResetForInput(isa.NewInput(bootSB))
	if err := e.core.Run(); err != nil {
		return fmt.Errorf("executor: boot workload failed: %w", err)
	}
	if err := e.core.LoadTest(e.prog, e.sb); err != nil {
		return fmt.Errorf("executor: reloading test program failed: %w", err)
	}
	return nil
}

// prime resets the memory-system state ahead of a test case according to
// the configured mode. The actual prime semantics live in mem.Hierarchy
// (PrimeL1D / PrimeInvalidate), shared with the gadget tests so the two
// can never diverge. By default the prime is incremental: each cache's
// dirty bitmap and base (the fill template, or empty) say which sets the
// previous case changed, and only those are restored or cleared, with the
// small D-TLB and transient structures rewritten whole — bit-identical to
// the full prime.
func (e *Executor) prime() {
	h := e.core.Hier
	incremental := !e.cfg.FullPrime
	// Neither mode touches the L2: like the paper's setup, only the L1D
	// (and TLB) are reset between inputs, so the L2 stays warm across the
	// inputs of a program and speculative fills land within the test
	// (first input of a program runs with a cold L2, later ones warm).
	switch e.cfg.Prime {
	case PrimeFill:
		// When the trace format observes the L1I (the KV1/KV2 campaigns),
		// the attacker primes the instruction cache as well; otherwise a
		// warm L1I absorbs the timing-driven fetch-ahead differences the
		// format exists to expose.
		if e.cfg.Format == FormatL1DTLBL1I {
			h.InvalidateL1I(incremental)
		}
		h.PrimeL1D(incremental)
	case PrimeInvalidate:
		h.PrimeInvalidate(incremental)
	case PrimeNone:
		// Leave everything as the previous test case left it.
	}
}

// extract builds the µarch trace in the configured format, reusing a
// recycled trace (and its snapshot buffers) when one is available.
func (e *Executor) extract() *UTrace {
	var tr *UTrace
	if n := len(e.traceFree); n > 0 {
		tr = e.traceFree[n-1]
		e.traceFree = e.traceFree[:n-1]
	} else {
		tr = &UTrace{}
	}
	tr.Format = e.cfg.Format
	tr.EndCycle = e.core.EndCycle()
	switch e.cfg.Format {
	case FormatL1DTLB:
		e.core.Hier.L1D.DeltaInto(&tr.L1D)
		tr.TLB = e.core.Hier.DTLB.SnapshotInto(tr.TLB[:0])
	case FormatL1DTLBL1I:
		e.core.Hier.L1D.DeltaInto(&tr.L1D)
		tr.TLB = e.core.Hier.DTLB.SnapshotInto(tr.TLB[:0])
		e.core.Hier.L1I.DeltaInto(&tr.L1I)
	case FormatBPState:
		tr.BPDigest = e.core.BP.Snapshot()
	case FormatMemOrder:
		tr.MemOrder = append(tr.MemOrder[:0], e.core.AccessOrder()...)
	case FormatBranchOrder:
		tr.BranchOrder = append(tr.BranchOrder[:0], e.core.BranchOrder()...)
	}
	return tr
}

// ReleaseTrace returns a trace obtained from Run/RunValidationPair
// to the executor's recycle list. Callers that are done comparing a trace
// (and do not retain it in a violation report) hand it back so the next
// test case reuses its buffers; releasing nil is a no-op. A released trace
// must no longer be read.
func (e *Executor) ReleaseTrace(tr *UTrace) {
	if tr == nil {
		return
	}
	tr.reset()
	e.traceFree = append(e.traceFree, tr)
}
