// Package engine is the campaign driver: RunCampaign is the one way to run
// a fuzzing campaign in-process (serial is Workers: 1, a single fuzzing
// instance is Instances: 1), and DistCampaign/UnitRunner are the seams the
// distributed coordinator and workers drive. It decomposes a campaign into
// program-level work units (generate → contract-model collect → µarch
// execute → compare → validate) and runs them on worker goroutines, each
// owning an executor whose simulated core is reused across programs and
// reset at the start of every program.
//
// Scheduling the ~Instances×Programs individual programs, rather than whole
// instances, lets a campaign of few instances use many cores and keeps a
// slow instance from straggling the run. Every campaign, in-process or
// distributed, is scheduled by one DistCampaign: workers draw units from
// its cursor, in (instance, program) order, and fold each result exactly
// once under its lock. A unit costs about a millisecond of simulation or
// more, so the lock is never the bottleneck, and the cursor never hands out
// a unit already past its instance's stop-on-first cut.
//
// # Generation strategies and epochs
//
// The engine threads a generation strategy (internal/generator.Strategy)
// through every work unit. StrategyRandom is the blind baseline — bit for
// bit the behaviour campaigns had before the strategy layer existed.
// StrategyCorpus closes the feedback loop: executors run with the
// speculation-coverage signal enabled (uarch.Coverage), and the campaign is
// split into deterministic epochs. Epoch N generates programs only from the
// corpus frozen at the end of epoch N−1 (coverage-novel and violating
// programs, recombined by the program-level mutators). Admission streams:
// an admission front follows the scheduling cursor through the epoch's
// units in (instance, program-index) order, never in completion order,
// merging each unit's coverage and deciding its admission as soon as every
// unit before it has settled — so an open epoch holds the programs of the
// units it admitted and of those the front has not reached, not of every
// unit it ran.
//
// # Determinism contract
//
// An identical seed yields an identical violation set — and, under
// StrategyCorpus, an identical corpus — regardless of worker count. Four
// properties deliver it:
//
//   - every work unit draws from its own RNG streams derived from the
//     campaign seed (fuzzer.UnitSeed), so build order is irrelevant;
//   - µarch execution of one program always starts from the same reset
//     context, so unit results — violations and coverage alike — depend
//     only on the unit, not on which worker ran it;
//   - epochs are barriers: all of epoch N−1 completes, and its coverage is
//     merged in (instance, program) order, before its corpus is frozen, so
//     the corpus an epoch-N unit mutates is schedule-independent;
//   - results are aggregated in (instance, program-index) order no matter
//     the order in which workers finished them, with the StopOnFirst cut
//     re-derived deterministically from the lowest violating index.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Generation strategy names (Config.Strategy, cmd/amulet -strategy).
const (
	// StrategyRandom generates every program blindly from the seeded
	// streams — the paper's setup, and the default.
	StrategyRandom = "random"
	// StrategyCorpus is coverage-guided generation over deterministic
	// epochs. The checkpoint log knows it by name: only its units need
	// their generated programs to resume.
	StrategyCorpus = checkpoint.StrategyCorpus
)

// DefaultEpochs is the corpus-strategy epoch count when Config.Epochs is
// unset: epoch 0 explores randomly, later epochs mutate the corpus.
const DefaultEpochs = 4

// Config configures an engine-scheduled campaign.
type Config struct {
	// Campaign is the campaign shape: Base config plus the instance count.
	// Base.Seed seeds the whole campaign.
	Campaign fuzzer.CampaignConfig
	// Workers sets the worker count, one executor each; zero uses
	// GOMAXPROCS. The violation set is identical for every value; counters
	// and timings (TestCases, Metrics, Elapsed) are not, since cancellation
	// and stop-on-first races decide how much extra work runs.
	Workers int
	// Strategy selects the generation strategy: StrategyRandom (default)
	// or StrategyCorpus.
	Strategy string
	// Epochs splits a corpus-strategy campaign into this many deterministic
	// epochs (zero = DefaultEpochs). Random campaigns are a single epoch;
	// setting Epochs > 1 with StrategyRandom is a configuration error.
	Epochs int

	// CheckpointDir enables crash-safe campaigns: progress is persisted
	// there as an append-only log (see internal/checkpoint) — each worker
	// appends the record of the unit it just finished, and the file is
	// fsynced at epoch boundaries and when a cancelled campaign finishes
	// draining its workers — and quarantined units' repro bundles land in
	// its quarantine/ subdirectory. Empty disables durability, and the
	// per-unit path then pays one nil check.
	CheckpointDir string
	// Resume restores progress from CheckpointDir before running: done
	// units keep their checkpointed results and only unfinished work runs,
	// landing on the same final results as an uninterrupted campaign (the
	// determinism contract plus unit-granular progress make the two
	// indistinguishable). A missing checkpoint is a fresh start; a corrupt
	// one, or one written under a different configuration, is an error.
	// Requires CheckpointDir.
	Resume bool
	// UnitTimeout arms a per-unit watchdog: a unit that exceeds the
	// deadline is abandoned (its goroutine and executor with it), counted
	// in Metrics.TimedOut, and bundled for replay like a quarantined panic;
	// the campaign keeps going. Zero — the default — disables the watchdog,
	// and units run inline on their worker with no extra goroutine.
	UnitTimeout time.Duration
	// Inject is the deterministic fault-injection harness hook. Nil in
	// production (every hook on a nil injector is an inert nil check); the
	// crash/resume, quarantine, and corruption tests arm it.
	Inject *faultinject.Injector
}

// unit is one program-level work unit.
type unit struct {
	inst, prog int
	seed       int64
}

// unitAt names unit (inst, prog) of the campaign together with the seed of
// its RNG streams.
func (c *campaign) unitAt(inst, prog int) unit {
	return unit{inst: inst, prog: prog, seed: fuzzer.UnitSeed(fuzzer.InstanceSeed(c.base.Seed, inst), prog)}
}

// campaign is the mutable state of one engine run, shared by its epochs.
type campaign struct {
	base      fuzzer.Config
	instances int
	programs  int
	workers   int
	start     time.Time

	// stopAt[i] is the last program index of instance i that still needs
	// running: programs-1, or under StopOnFirstViolation the lowest index
	// known to hold a confirmed violation. Units beyond it are skipped.
	// Aggregation and corpus admission re-derive the deterministic cut, so
	// the skip is purely a work-avoidance optimization. Written under
	// DistCampaign.mu once workers run.
	stopAt []int

	// results[i][p] is the unit result until instance i's fold takes it;
	// progs[i][p] the generated source program (recorded only under the
	// corpus strategy, for admission): released when the admission front
	// passes the unit without admitting it, or, for an admitted unit, when
	// its epoch commits — an interrupted epoch's pending record needs it.
	results [][]*fuzzer.Result
	progs   [][]isa.SourceProgram
	// folds[i] accumulates instance i's results as they settle; written
	// under DistCampaign.mu once workers run, like the grids.
	folds []instanceFold

	// Corpus state (corpus strategy only): the campaign-global coverage map
	// and the admitted entries. Only the admission front changes them
	// (DistCampaign.admitLocked), in (instance, program) order; an epoch's
	// generation reads the entries as they stood when it began.
	cover   *uarch.Coverage
	entries []generator.CorpusEntry

	// Durability state. done[i][p] marks unit (i,p) finished for checkpoint
	// purposes — completed, or degraded to a counted quarantine/timeout —
	// so restored units are skipped and only done units are persisted;
	// draws[i][p] is the unit's final PRNG draw count (a determinism
	// diagnostic the checkpoint records). Cells are written by restore
	// before workers start and afterwards only by DistCampaign.settle,
	// under DistCampaign.mu.
	done  [][]bool
	draws [][]uint64

	// log is the open checkpoint log (nil without a checkpoint directory).
	// loggedEpochs and loggedEntries are the EpochsDone of its last commit
	// record and len(entries) when that was appended; only barrier code
	// touches them. logErr, under logMu, is the first failed unit append.
	log           *checkpoint.Log
	loggedEpochs  int
	loggedEntries int
	logMu         sync.Mutex
	logErr        error

	ckptDir      string
	inject       *faultinject.Injector
	unitTimeout  time.Duration
	strategyName string
	defenseName  string
	frontendName string
	epochs       int
	configFP     uint64

	// settled, when set (tests only), is called under DistCampaign.mu at
	// the end of every settle.
	settled func(*DistCampaign)
}

// RunCampaign executes the campaign on the engine — the one in-process
// campaign driver: a serial run is Workers: 1, a single fuzzing instance
// Instances: 1. A context error stops all workers between test cases;
// whatever completed is aggregated and returned alongside the context's
// error. Unit failures likewise don't discard the campaign: errors are
// joined and partial results returned.
func RunCampaign(ctx context.Context, cfg Config) (*fuzzer.CampaignResult, error) {
	_, res, err := runCampaign(ctx, cfg)
	return res, err
}

// runCampaign is RunCampaign, also returning the campaign it ran (nil if
// it never started) for tests to inspect.
func runCampaign(ctx context.Context, cfg Config) (*DistCampaign, *fuzzer.CampaignResult, error) {
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		return nil, nil, err
	}
	return c.run(ctx, corpus, cfg.Resume)
}

// run runs the campaign newCampaign built: it opens the log (restoring
// from it when resume is set), then runs the epochs on the workers.
func (c *campaign) run(ctx context.Context, corpus, resume bool) (*DistCampaign, *fuzzer.CampaignResult, error) {
	d, err := newDistCampaign(c, resume)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()

	// Worker w keeps slots[w] across epochs.
	slots := make([]*slot, c.workers)
	var errs []error
	epochsDone := c.loggedEpochs // what a resumed log has admitted; 0 when fresh
	for e := epochsDone; e < c.epochs; e++ {
		var strat generator.Strategy = generator.Random{}
		if corpus {
			strat = generator.NewCorpusStrategy(c.entries)
		}
		lo, hi := epochBounds(c.programs, c.epochs, e)
		errs = append(errs, d.runEpoch(ctx, slots, strat, lo, hi)...)
		if ctx.Err() != nil {
			// The epoch was interrupted: it is not committed. Its pending
			// record carries the programs resume needs to admit it again.
			break
		}
		if corpus {
			d.closeWindow()
		}
		epochsDone = e + 1
		if err := c.saveCheckpoint(epochsDone); err != nil {
			errs = append(errs, err)
		}
	}
	if ctx.Err() != nil {
		// Cancelled: the workers have drained; persist what they finished so
		// the campaign resumes where it died.
		if err := c.saveCheckpoint(epochsDone); err != nil {
			errs = append(errs, err)
		}
	}

	return d, d.Result(), errors.Join(append(errs, c.logFailure(), ctx.Err())...)
}

// newCampaign validates cfg and builds the campaign bookkeeping shared by
// RunCampaign, the coordinator (DistCampaign) and its workers (UnitRunner):
// per-unit result/progress grids, stop-on-first cuts, strategy and epoch
// resolution, and the campaign identity fingerprint. It opens no log,
// builds no executor and runs nothing.
func newCampaign(cfg Config) (*campaign, bool, error) {
	if cfg.Campaign.Instances < 1 {
		return nil, false, fmt.Errorf("engine: campaign needs at least one instance")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, false, fmt.Errorf("engine: Resume requires CheckpointDir")
	}
	base := cfg.Campaign.Base
	if err := base.Validate(); err != nil {
		return nil, false, err
	}
	c := &campaign{
		instances:    cfg.Campaign.Instances,
		programs:     base.Programs,
		start:        time.Now(),
		ckptDir:      cfg.CheckpointDir,
		inject:       cfg.Inject,
		unitTimeout:  cfg.UnitTimeout,
		strategyName: StrategyRandom,
		epochs:       1,
	}
	corpus := false
	switch cfg.Strategy {
	case "", StrategyRandom:
		if cfg.Epochs > 1 {
			return nil, false, fmt.Errorf("engine: epochs require -strategy=corpus")
		}
	case StrategyCorpus:
		// Epochs default to DefaultEpochs and never exceed the program count.
		corpus, c.strategyName = true, StrategyCorpus
		c.epochs = DefaultEpochs
		if cfg.Epochs > 0 {
			c.epochs = cfg.Epochs
		}
		c.epochs = min(c.epochs, c.programs)
		base.Exec.Coverage = true
	default:
		return nil, false, fmt.Errorf("engine: unknown strategy %q (%s or %s)",
			cfg.Strategy, StrategyRandom, StrategyCorpus)
	}
	c.base = base
	c.frontendName = base.ResolvedFrontend().Name()
	if corpus {
		c.cover = uarch.NewCoverage()
		c.progs = make([][]isa.SourceProgram, c.instances)
		for i := range c.progs {
			c.progs[i] = make([]isa.SourceProgram, c.programs)
		}
	}

	c.workers = cfg.Workers
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if n := c.instances * c.programs; c.workers > n {
		c.workers = n
	}
	c.stopAt = make([]int, c.instances)
	for i := range c.stopAt {
		c.stopAt[i] = c.programs - 1
	}
	c.results = make([][]*fuzzer.Result, c.instances)
	c.folds = make([]instanceFold, c.instances)
	for i := range c.folds {
		// Under the corpus strategy nothing folds before the admission
		// front has passed it.
		c.folds[i] = instanceFold{viol: -1, limit: c.programs}
		if corpus {
			c.folds[i].limit = 0
		}
	}
	c.done = make([][]bool, c.instances)
	c.draws = make([][]uint64, c.instances)
	for i := range c.results {
		c.results[i] = make([]*fuzzer.Result, c.programs)
		c.done[i] = make([]bool, c.programs)
		c.draws[i] = make([]uint64, c.programs)
	}

	c.defenseName = base.DefenseFactory().Name()
	c.configFP = campaignFingerprint(base, c.defenseName, c.frontendName, c.instances, c.epochs, c.strategyName)
	return c, corpus, nil
}

// epochBounds returns the program-index range [lo, hi) of epoch e when
// programs are split into the given number of epochs (contiguous,
// near-equal chunks; every program belongs to exactly one epoch).
func epochBounds(programs, epochs, e int) (lo, hi int) {
	return e * programs / epochs, (e + 1) * programs / epochs
}

// runEpoch runs the units of one epoch (program indices [lo, hi) of every
// instance) on the workers and waits for all of them — the barrier that
// makes the next epoch's corpus schedule-independent. The workers draw from
// the cursor, windowed to the epoch; worker w runs on slots[w], building it
// on first use.
func (d *DistCampaign) runEpoch(ctx context.Context, slots []*slot, strat generator.Strategy, lo, hi int) []error {
	nUnits := d.c.instances * (hi - lo)
	if nUnits == 0 {
		return nil
	}
	d.setWindow(lo, hi)
	workers := min(d.c.workers, nUnits)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if slots[w] == nil {
				slots[w] = d.c.newSlot()
			}
			errCh <- d.runWorker(ctx, slots[w], strat)
		}()
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// firstViolatingIndex returns instance i's lowest violating program index,
// or -1: the fold's first violation, else the first past its fold point.
// Every unit below that index is guaranteed to have run (the stop-at skip
// only ever cuts above it), which is what makes the cut deterministic.
func (c *campaign) firstViolatingIndex(i int) int {
	f := &c.folds[i]
	if f.viol >= 0 {
		return f.viol
	}
	for p := f.next; p < c.programs; p++ {
		if r := c.results[i][p]; r != nil && len(r.Violations) > 0 {
			return p
		}
	}
	return -1
}

// slot is what a worker runs units on: its executor and the fuzzer
// workspace that recycles everything else a unit builds. The two share a
// fate — a unit that poisons the worker (a panic mid-pipeline, or a wedged
// goroutine the watchdog abandoned, which may still hold both) costs it
// both, and the worker builds a new slot in place.
type slot struct {
	exec *executor.Executor
	ws   *fuzzer.Workspace
}

// newSlot builds a worker's slot: an executor with its own defense instance
// and an empty workspace.
func (c *campaign) newSlot() *slot {
	return &slot{exec: executor.New(c.base.Exec, c.base.DefenseFactory()), ws: fuzzer.NewWorkspace()}
}

// runWorker is the one unit loop. A worker takes units from the cursor until
// it has none left, runs each on s behind the fault-isolation layer, and
// settles every outcome. A unit that poisons s (panic or watchdog
// abandonment) has s rebuilt in place, and the campaign keeps going.
func (d *DistCampaign) runWorker(ctx context.Context, s *slot, strat generator.Strategy) error {
	var errs []error
	for ctx.Err() == nil {
		id, ok := d.Next()
		if !ok {
			break
		}
		u := d.c.unitAt(id.Inst, id.Prog)
		out := d.c.runUnitIsolated(ctx, s.exec, s.ws, strat, u)
		if out.poison {
			// The executor and the workspace went down with the unit (an
			// abandoned wedged unit's goroutine still holds both).
			*s = *d.c.newSlot()
		}
		d.settle(u, out, nil)
		if out.err != nil {
			var qe *QuarantineError
			if errors.As(out.err, &qe) {
				continue // isolated, bundled, and counted — not a campaign error
			}
			if errors.Is(out.err, ctx.Err()) && ctx.Err() != nil {
				break // reported once by the caller
			}
			errs = append(errs, fmt.Errorf("engine: unit (%d,%d): %w", u.inst, u.prog, out.err))
		}
	}
	return errors.Join(errs...)
}

// runUnit runs the full stage pipeline of one work unit on the worker's
// executor and workspace, returning the unit-local result, the generated
// source program, and the unit's final PRNG draw count (metrics attributed
// by snapshot diff, since the executor is shared across this worker's
// units).
func (c *campaign) runUnit(ctx context.Context, exec *executor.Executor, ws *fuzzer.Workspace, strat generator.Strategy, u unit) (*fuzzer.Result, isa.SourceProgram, uint64, error) {
	t0 := time.Now()
	before := exec.Metrics()
	res := &fuzzer.Result{}
	var prog isa.SourceProgram
	var draws uint64
	err := ws.Reset(c.base, u.seed)
	if err == nil {
		var pc *fuzzer.ProgramCase
		if pc, err = ws.Case(ctx, strat, u.prog); err == nil {
			prog = pc.Source
			_, err = fuzzer.ExecuteCase(ctx, exec, c.base, pc, res, c.start)
		}
		draws = ws.Draws()
	}
	res.Elapsed = time.Since(t0)
	res.Metrics = exec.Metrics().Minus(before)
	return res, prog, draws, err
}

// instanceFold is one instance's result, folded in program-index order as
// its units settle, so that a folded unit's result and coverage are garbage
// as soon as the fold has them: units [0, next) are folded into acc and
// their result cells released. The fold stops at the first unit not done,
// and at limit — under the corpus strategy the admission front, since
// admission reads each unit's result (programs otherwise). viol is the
// first violating folded unit, -1 while there is none.
type instanceFold struct {
	acc         fuzzer.Result
	next, limit int
	viol        int
}

// fold advances instance i's fold over its done units. It allocates nothing
// of its own beyond acc's first coverage map and the growth of its
// violation list.
func (c *campaign) fold(i int) {
	f := &c.folds[i]
	for ; f.next < f.limit && c.done[i][f.next]; f.next++ {
		f.viol = foldUnit(&f.acc, c.results[i][f.next], f.next, f.viol, c.base.StopOnFirstViolation)
		c.results[i][f.next] = nil
	}
}

// foldUnit merges unit p's result into acc, in program-index order, and
// returns the first violating unit so far (viol before it). Under
// StopOnFirstViolation the deterministic cut is the lowest violating index:
// units past it may or may not have run (the stop signal races with the
// workers), so their violations and coverage are dropped — only their
// counters are kept — making the violation set and the reported coverage
// independent of scheduling.
func foldUnit(acc, ur *fuzzer.Result, p, viol int, stopFirst bool) int {
	if stopFirst && viol >= 0 && p > viol {
		trimmed := *ur
		trimmed.Violations, trimmed.Coverage = nil, nil
		acc.Merge(&trimmed)
		return viol
	}
	acc.Merge(ur)
	if viol < 0 && len(ur.Violations) > 0 {
		viol = p
	}
	return viol
}

// instanceResult returns a copy of instance i's result: its fold, then, in
// program-index order, whatever settled past the fold point — units beyond
// a gap the fold has not crossed (an interrupted campaign's, or dead work
// past a stop-on-first cut), and under the corpus strategy those the
// admission front has not reached.
func (c *campaign) instanceResult(i int) *fuzzer.Result {
	f := &c.folds[i]
	r := &fuzzer.Result{}
	r.Merge(&f.acc)
	viol := f.viol
	for p := f.next; p < c.programs; p++ {
		if ur := c.results[i][p]; ur != nil {
			viol = foldUnit(r, ur, p, viol, c.base.StopOnFirstViolation)
		}
	}
	return r
}
