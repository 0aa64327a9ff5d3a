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
	// PrimeNone leaves cache state untouched between inputs (used by
	// ablation benchmarks only).
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
	// (process loader, runtime init) executed whenever the simulator
	// "starts". It stands in for gem5's multi-second startup, which the
	// paper measures as 96% of Naive's per-test time; the boot program runs
	// through the full pipeline, so its cost scales with simulator fidelity
	// exactly as gem5's does. Zero selects the default.
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
	Digest       time.Duration // µarch trace digesting (hash computation)
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
	// directory; the campaign keeps going on a fresh executor). TimedOut
	// counts units the -unit-timeout watchdog degraded the same way. Both
	// mean the campaign's results are partial: the counts flow to the CLI
	// summary and its resumable exit path.
	Quarantined int
	TimedOut    int

	// Distributed-campaign robustness counters (internal/dist). All zero on
	// a single-process run. Retries counts RPC attempts beyond the first
	// (client-side backoff retries, reported by workers on submit);
	// Evictions counts workers the coordinator evicted for lapsed
	// heartbeats or digest-invalid submissions; Reassigned counts units
	// whose lease expired or was revoked and that went back to the pending
	// pool; DuplicatesDropped counts unit results that arrived for
	// already-folded units (late or retransmitted leases) and were dropped
	// by the exactly-once fold; DegradedLocal counts coordinator
	// transitions to local execution after the remote fleet died.
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

// Minus returns m - other, for snapshot-diff accounting of a shared
// executor (the engine attributes a pooled executor's time to the work
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

	// reuseBoot makes startup capture the post-boot micro-architectural
	// state once and restore that checkpoint on every later start, so a
	// long-lived (pooled) executor pays the boot workload a single time.
	reuseBoot bool
	bootCP    *uarch.UarchState

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

	// fullDigest withholds the memory structures' incrementally maintained
	// content digests from extracted traces, so Hash re-derives the section
	// sums by walking the section words — the incremental digests' test
	// oracle (the sums are pure functions of the section content). Only the
	// package's tests set it.
	fullDigest bool

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

// EnableBootCheckpoint switches the executor to checkpointed startups: the
// first start simulates the boot workload and saves the post-boot context;
// every later start restores that checkpoint instead of re-simulating the
// boot. This models keeping a booted simulator process alive across test
// programs — the paper's observation that simulator startup is 96% of
// Naive's per-test time is exactly the cost this removes. Pool executors
// have it enabled.
func (e *Executor) EnableBootCheckpoint() { e.reuseBoot = true }

// Config returns the executor configuration.
func (e *Executor) Config() Config { return e.cfg }

// Metrics returns the accumulated time breakdown.
func (e *Executor) Metrics() Metrics { return e.met }

// CountTruncations folds n leakage-model step-budget truncations into the
// metrics. The model side (fuzzer.ExecuteCase) reports them here because
// the executor's metrics are the one channel that survives both campaign
// drivers: the serial fuzzer snapshots them wholesale and the engine diffs
// per-unit snapshots, so a count recorded anywhere else would be dropped.
func (e *Executor) CountTruncations(n int) { e.met.Truncations += n }

// ResetMetrics clears the accumulated metrics.
func (e *Executor) ResetMetrics() { e.met = Metrics{} }

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

// RunFresh executes one input from a fresh micro-architectural context
// (predictors and caches reset).
func (e *Executor) RunFresh(in *isa.Input) (*UTrace, error) {
	if e.prog == nil {
		return nil, fmt.Errorf("executor: RunFresh before LoadProgram")
	}
	e.core.ResetUarch()
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
	if e.prog == nil {
		return nil, nil, fmt.Errorf("executor: RunValidationPair before LoadProgram")
	}
	warm, err := e.runOnce(a)
	if err != nil {
		return nil, nil, err
	}
	e.ReleaseTrace(warm)
	if e.valCP == nil {
		e.valCP = &uarch.UarchState{}
	}
	e.core.SaveUarchInto(e.valCP)
	trA, err = e.runOnce(a)
	if err != nil {
		return nil, nil, err
	}
	e.core.RestoreUarch(e.valCP)
	trB, err = e.runOnce(b)
	if err != nil {
		return nil, nil, err
	}
	return trA, trB, nil
}

func (e *Executor) runOnce(in *isa.Input) (*UTrace, error) {
	tp := time.Now()
	e.prime()
	t0 := time.Now()
	e.met.Prime += t0.Sub(tp)
	e.core.ResetForInput(in)
	err := e.core.Run()
	e.met.Simulate += time.Since(t0)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr := e.extract()
	t2 := time.Now()
	e.met.TraceExtract += t2.Sub(t1)
	// Digest eagerly rather than at first comparison: the hash is computed
	// exactly once per trace either way (it is memoized), but doing it here
	// makes its cost a visible Metrics bucket instead of vanishing into the
	// comparison loop — and it is the step the incremental section sums
	// accelerate.
	tr.Hash()
	e.met.Digest += time.Since(t2)
	e.met.TestCases++
	return tr, nil
}

// RunLoggedPair replays two inputs from an identical captured context with
// the simulator debug log enabled, returning each run's log records and
// traces. The analysis package uses it to root-cause violations the way
// the paper parses gem5 debug logs (§3.3).
func (e *Executor) RunLoggedPair(a, b *isa.Input) (logA, logB []uarch.LogRec, trA, trB *UTrace, err error) {
	if e.prog == nil {
		return nil, nil, nil, nil, fmt.Errorf("executor: RunLoggedPair before LoadProgram")
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
	ctx := e.core.SaveUarch()
	e.core.Log.Enabled = true
	defer func() { e.core.Log.Enabled = false }()
	trA, err = e.runOnce(a)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	logA = append([]uarch.LogRec(nil), e.core.Log.Recs...)
	e.core.RestoreUarch(ctx)
	trB, err = e.runOnce(b)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	logB = append([]uarch.LogRec(nil), e.core.Log.Recs...)
	return logA, logB, trA, trB, nil
}

// startup models the simulator start: a fresh micro-architectural context
// plus the boot workload running through the full pipeline. With the boot
// checkpoint enabled, later starts restore the saved post-boot context —
// behaviourally identical (Save/Restore deep-copy the same state ResetUarch
// rebuilds) but without re-simulating the boot instructions.
//
// The Naive strategy never uses the checkpoint: Naive models launching a
// fresh simulator process per input, and that per-input boot cost is the
// very thing its experiments (Table 2/3) measure.
//
// A boot failure is returned, not panicked: in a long-lived service a
// failing start must surface as that campaign's error, never as process
// death. The executor stays un-started, so a later call retries cleanly.
func (e *Executor) startup() error {
	t0 := time.Now()
	if e.reuseBoot && e.bootCP != nil && e.cfg.Strategy != StrategyNaive {
		e.core.RestoreUarch(e.bootCP)
	} else {
		e.core.ResetUarch()
		if err := e.runBoot(); err != nil {
			return err
		}
		e.core.ResetUarch()
		if e.reuseBoot && e.bootCP == nil && e.cfg.Strategy != StrategyNaive {
			e.bootCP = e.core.SaveUarch()
		}
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

func (e *Executor) runBoot() error {
	e.met.BootRuns++
	// The boot workload is identical for every start; its features are
	// noise, not signal, so coverage is suspended while it runs.
	if cov := e.core.CoverageMap(); cov != nil {
		e.core.SetCoverage(nil)
		defer e.core.SetCoverage(cov)
	}
	boot := bootProgram(e.cfg.BootInsts)
	saveProg, saveSB := e.prog, e.sb
	bootSB := isa.Sandbox{Pages: 4}
	if err := e.core.LoadTest(boot, bootSB); err != nil {
		return fmt.Errorf("executor: boot program rejected: %w", err)
	}
	e.core.ResetForInput(isa.NewInput(bootSB))
	if err := e.core.Run(); err != nil {
		return fmt.Errorf("executor: boot workload failed: %w", err)
	}
	if saveProg != nil {
		if err := e.core.LoadTest(saveProg, saveSB); err != nil {
			return fmt.Errorf("executor: reloading test program failed: %w", err)
		}
	} else {
		// No test program was loaded when the boot ran: restore a defined
		// empty state instead of leaving the boot program and its sandbox
		// mapped (Run keeps failing with "before LoadProgram", and the next
		// LoadProgram rebuilds the image from scratch).
		e.core.ClearTest()
	}
	return nil
}

// prime resets the memory-system state ahead of a test case according to
// the configured mode. The actual prime semantics live in mem.Hierarchy
// (PrimeL1D / PrimeInvalidate), shared with the gadget tests so the two
// can never diverge; by default the hierarchy's dirty tracking makes the
// prime incremental — bit-identical to the full prime, but touching only
// the sets and entries the previous case dirtied.
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
		tr.L1D = e.core.Hier.L1D.SnapshotInto(tr.L1D[:0])
		tr.TLB = e.core.Hier.DTLB.SnapshotInto(tr.TLB[:0])
		if !e.fullDigest {
			tr.setSectionSums(e.core.Hier.L1D.ContentDigest(), e.core.Hier.DTLB.ContentDigest(), 0)
		}
	case FormatL1DTLBL1I:
		tr.L1D = e.core.Hier.L1D.SnapshotInto(tr.L1D[:0])
		tr.TLB = e.core.Hier.DTLB.SnapshotInto(tr.TLB[:0])
		tr.L1I = e.core.Hier.L1I.SnapshotInto(tr.L1I[:0])
		if !e.fullDigest {
			tr.setSectionSums(e.core.Hier.L1D.ContentDigest(), e.core.Hier.DTLB.ContentDigest(), e.core.Hier.L1I.ContentDigest())
		}
	case FormatBPState:
		tr.BPDigest = e.core.BP.Snapshot()
	case FormatMemOrder:
		tr.MemOrder = append(tr.MemOrder[:0], e.core.AccessOrder()...)
	case FormatBranchOrder:
		tr.BranchOrder = append(tr.BranchOrder[:0], e.core.BranchOrder()...)
	}
	return tr
}

// ReleaseTrace returns a trace obtained from Run/RunFresh/RunValidationPair
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
