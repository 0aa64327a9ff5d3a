// Distributed dispatch: the exported seams internal/dist drives. The
// coordinator owns a DistCampaign — the same campaign bookkeeping
// RunCampaign uses, folded through the same record/mergeInstance path, so a
// distributed run is bit-identical to a single-process run at the same
// seed. Workers own a UnitRunner — a persistent executor that runs
// arbitrary units of the campaign by coordinates, exactly as a pooled
// engine worker would.
//
// Distributed campaigns are random-strategy only: the corpus strategy's
// epochs are cross-unit barriers (epoch N's generation depends on epoch
// N−1's admitted corpus), and distributing that lockstep is future work.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
)

// UnitID names one work unit by its deterministic coordinates.
type UnitID struct {
	Inst, Prog int
}

// ErrDistCorpus rejects distributed corpus-strategy campaigns.
var ErrDistCorpus = errors.New("engine: distributed campaigns support the random strategy only (corpus epochs are cross-unit barriers)")

// DistCampaign is the coordinator's half of a distributed campaign: it
// tracks which units are done, folds remote results exactly once per unit,
// runs units locally when the remote fleet degrades, and appends to/restores
// from the same checkpoint log single-process campaigns use — so a lost
// coordinator resumes from its own checkpoint, and a distributed checkpoint
// even resumes under the single-process engine (and vice versa).
//
// All methods are safe for concurrent use; results fold in (instance,
// program) order at Result() time regardless of submission order, which is
// what makes the distributed outcome bit-identical to the single-process
// one.
type DistCampaign struct {
	// foldMu orders folds against commits. A fold holds it shared from
	// marking its unit done until the unit's record is in the checkpoint
	// log; SaveCheckpoint holds it exclusively while it decides whether the
	// campaign is complete and appends the commit record. So a commit record
	// never precedes the record of a unit it vouches for, and folds still
	// encode and append side by side. Taken before mu.
	foldMu sync.RWMutex

	mu        sync.Mutex
	c         *campaign
	localPool *executor.Pool

	// remaining counts the units still needing execution: not done and not
	// beyond their instance's stop-on-first cut. Every fold and cut move
	// keeps it current, so Complete is a compare; finished is closed when it
	// reaches zero.
	remaining int
	finished  chan struct{}
	// The scheduling cursor: every open unit before (curInst, curProg) in
	// (instance, program) order has been handed out by Next.
	curInst, curProg int
}

// NewDistCampaign validates cfg and builds the coordinator-side campaign
// state. With cfg.Resume set, progress is restored from cfg.CheckpointDir
// (a missing checkpoint is a fresh start; a corrupt or mismatched one is an
// error), exactly as RunCampaign resumes.
func NewDistCampaign(cfg Config) (*DistCampaign, error) {
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if corpus {
		return nil, ErrDistCorpus
	}
	if err := c.openLog(cfg.Resume); err != nil {
		return nil, err
	}
	d := &DistCampaign{c: c, finished: make(chan struct{})}
	// The one full scan of the grid: what a resumed log left open.
	for i := 0; i < c.instances; i++ {
		cut := c.stopAt[i].Load()
		for p := 0; p < c.programs && int64(p) <= cut; p++ {
			if !c.done[i][p] {
				d.remaining++
			}
		}
	}
	if d.remaining == 0 {
		close(d.finished)
	}
	return d, nil
}

// Close releases the checkpoint file. The campaign is over: fold nothing
// afterwards.
func (d *DistCampaign) Close() { d.c.closeLog() }

// ConfigFP is the campaign's configuration fingerprint — the identity the
// join handshake, submissions, and checkpoints are bound to.
func (d *DistCampaign) ConfigFP() uint64 { return d.c.configFP }

// FrontendName names the campaign's ISA frontend.
func (d *DistCampaign) FrontendName() string { return d.c.frontendName }

// Shape returns the campaign's unit grid.
func (d *DistCampaign) Shape() (instances, programs int) {
	return d.c.instances, d.c.programs
}

// Complete reports whether every unit is done or beyond its instance's
// stop-on-first cut — the campaign has nothing left to schedule.
func (d *DistCampaign) Complete() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remaining == 0
}

// Remaining is how many units still need execution.
func (d *DistCampaign) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remaining
}

// Finished is closed once the campaign is complete — already so when a
// resumed log left nothing open.
func (d *DistCampaign) Finished() <-chan struct{} { return d.finished }

// Next hands out the next unit needing execution, in (instance, program)
// order: not done, and — under StopOnFirstViolation — not beyond the
// instance's current cut (a violation at program p makes every unit q > p
// of that instance dead work; the merge drops their results anyway). Each
// unit is handed out once: whoever takes one and does not see it folded
// (a lapsed lease, a failed local run) schedules it again itself. The
// cursor only moves forward, so a campaign's calls cost O(units) together.
func (d *DistCampaign) Next() (UnitID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.curInst < d.c.instances {
		if d.curProg >= d.c.programs || int64(d.curProg) > d.c.stopAt[d.curInst].Load() {
			d.curInst, d.curProg = d.curInst+1, 0
			continue
		}
		p := d.curProg
		d.curProg++
		if !d.c.done[d.curInst][p] {
			return UnitID{Inst: d.curInst, Prog: p}, true
		}
	}
	return UnitID{}, false
}

// Open reports whether unit u still needs execution.
func (d *DistCampaign) Open(u UnitID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inBounds(u) && !d.c.done[u.Inst][u.Prog] && int64(u.Prog) <= d.c.stopAt[u.Inst].Load()
}

func (d *DistCampaign) inBounds(u UnitID) bool {
	return u.Inst >= 0 && u.Inst < d.c.instances && u.Prog >= 0 && u.Prog < d.c.programs
}

// Done reports whether unit u has a final folded result.
func (d *DistCampaign) Done(u UnitID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inBounds(u) && d.c.done[u.Inst][u.Prog]
}

// RecordRemote folds one remotely-executed unit result into the campaign,
// exactly once per unit: a duplicate (late lease, retransmitted submit)
// returns folded=false and changes nothing — first fold wins, and since
// units are seed-deterministic, any two honest submissions for the same
// unit carry identical payloads. Out-of-bounds coordinates are an error
// (a malfunctioning or malicious worker, never folded).
func (d *DistCampaign) RecordRemote(u UnitID, rec checkpoint.ResultRec, draws uint64) (folded bool, err error) {
	if !d.inBounds(u) {
		return false, fmt.Errorf("engine: remote result for unit (%d,%d) out of campaign bounds %dx%d",
			u.Inst, u.Prog, d.c.instances, d.c.programs)
	}
	d.foldMu.RLock()
	defer d.foldMu.RUnlock()
	d.mu.Lock()
	if d.c.done[u.Inst][u.Prog] {
		d.mu.Unlock()
		return false, nil
	}
	res := rec.Decode()
	d.c.fold(unit{inst: u.Inst, prog: u.Prog}, unitOutcome{res: res, draws: draws, done: true})
	d.accountLocked(u, res)
	d.mu.Unlock()
	// First fold only, and outside the campaign lock: the record is encoded
	// and written while other submissions fold.
	d.c.logUnit(unit{inst: u.Inst, prog: u.Prog}, rec, draws)
	return true, nil
}

// accountLocked settles remaining after unit u's first fold, and advances
// the instance's stop-on-first cut after a violating result (stopAt stays
// atomic for RunLocal's unlocked reads). A unit at or before the cut was
// counted; one beyond it is dead work folding late and never was. A cut
// moving down from old to u.Prog kills the not-done units in between — the
// ranges of an instance's successive moves are disjoint, so they cost
// O(programs) per instance over the whole campaign.
func (d *DistCampaign) accountLocked(u UnitID, res *fuzzer.Result) {
	cut := d.c.stopAt[u.Inst].Load()
	if int64(u.Prog) > cut {
		return
	}
	d.remaining--
	if d.c.base.StopOnFirstViolation && res != nil && len(res.Violations) > 0 && int64(u.Prog) < cut {
		for p := u.Prog + 1; p < d.c.programs && int64(p) <= cut; p++ {
			if !d.c.done[u.Inst][p] {
				d.remaining--
			}
		}
		d.c.stopAt[u.Inst].Store(int64(u.Prog))
	}
	if d.remaining == 0 {
		close(d.finished)
	}
}

// RunLocal executes the given units in-process, through the same
// fault-isolation layer engine workers use (panic quarantine, optional
// watchdog), folding their results into the campaign. It is the
// coordinator's graceful-degradation path: already-done units are skipped,
// so racing a late remote submission is harmless. The executor pool (one
// executor, boot paid once) is created on first use and reused across
// calls.
func (d *DistCampaign) RunLocal(ctx context.Context, units []UnitID) error {
	d.mu.Lock()
	if d.localPool == nil {
		pool, err := executor.NewPool(d.c.base.Exec, d.c.base.DefenseFactory, 1)
		if err != nil {
			d.mu.Unlock()
			return err
		}
		d.localPool = pool
	}
	pool := d.localPool
	d.mu.Unlock()

	exec, err := pool.Acquire(ctx)
	if err != nil {
		return err
	}
	defer func() { pool.Release(exec) }()
	tp := &contract.TracePool{}
	var errs []error
	for _, id := range units {
		if ctx.Err() != nil {
			break
		}
		if d.Done(id) || int64(id.Prog) > d.c.stopAt[id.Inst].Load() {
			continue
		}
		u := unit{
			inst: id.Inst,
			prog: id.Prog,
			seed: fuzzer.UnitSeed(fuzzer.InstanceSeed(d.c.base.Seed, id.Inst), id.Prog),
		}
		out := d.c.runUnitIsolated(ctx, exec, generator.Random{}, u, tp)
		if out.poison {
			pool.Discard(exec)
			tp = &contract.TracePool{}
			var aerr error
			if exec, aerr = pool.Acquire(ctx); aerr != nil {
				d.recordLocal(u, out)
				errs = append(errs, aerr)
				break
			}
		}
		d.recordLocal(u, out)
		if out.err != nil {
			var qe *QuarantineError
			if errors.As(out.err, &qe) {
				continue // isolated and counted, like any engine worker
			}
			if errors.Is(out.err, ctx.Err()) && ctx.Err() != nil {
				break
			}
			errs = append(errs, fmt.Errorf("engine: local unit (%d,%d): %w", u.inst, u.prog, out.err))
		}
	}
	return errors.Join(errs...)
}

// recordLocal folds a locally-run unit outcome under the campaign lock and
// appends its record outside it, exactly as RecordRemote does.
func (d *DistCampaign) recordLocal(u unit, out unitOutcome) {
	d.foldMu.RLock()
	defer d.foldMu.RUnlock()
	d.mu.Lock()
	if d.c.done[u.inst][u.prog] {
		d.mu.Unlock()
		return // a remote submission won the race; keep the first fold
	}
	d.c.fold(u, out)
	if out.done { // an interrupted unit keeps its partial result and stays open
		d.accountLocked(UnitID{Inst: u.inst, Prog: u.prog}, out.res)
	}
	d.mu.Unlock()
	d.c.logOutcome(u, out)
}

// SaveCheckpoint makes every folded unit durable: the units' records are
// already in the checkpoint log (each fold appended its own), so this is
// the commit record once the campaign is complete, and one fsync — outside
// every lock, so folds proceed while the disk works. A no-op without a
// checkpoint directory. A unit append that failed is reported here, by
// every call from then on: the log lacks that unit, and will get no commit
// record. The log is interchangeable with a single-process campaign's: a
// lost coordinator resumes from it, and so does plain `amulet -resume`.
func (d *DistCampaign) SaveCheckpoint() error {
	if d.c.log == nil {
		return d.c.logFailure()
	}
	d.foldMu.Lock()
	d.mu.Lock()
	epochsDone := 0
	if d.remaining == 0 {
		epochsDone = d.c.epochs
	}
	d.mu.Unlock()
	err := d.c.appendBoundary(epochsDone)
	d.foldMu.Unlock()
	if err == nil {
		err = d.c.log.Sync()
	}
	return errors.Join(d.c.logFailure(), err)
}

// Result folds the campaign outcome in (instance, program) order — the
// same mergeInstance path RunCampaign returns through, so fingerprints are
// directly comparable with single-process runs.
func (d *DistCampaign) Result() *fuzzer.CampaignResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := &fuzzer.CampaignResult{Instances: make([]*fuzzer.Result, d.c.instances)}
	for i := 0; i < d.c.instances; i++ {
		out.Instances[i] = mergeInstance(d.c.results[i], d.c.base.StopOnFirstViolation)
	}
	out.Elapsed = time.Since(d.c.start)
	out.Aggregate()
	return out
}

// UnitRunner executes individual units of a campaign, standalone, on a
// persistent executor — the worker's half of a distributed campaign. The
// boot workload is paid once; every Run starts from the same post-boot
// context a pooled engine worker restores, so the unit result depends only
// on the unit coordinates and the campaign seed, never on which worker ran
// it or in what order.
type UnitRunner struct {
	c    *campaign
	pool *executor.Pool
	exec *executor.Executor
	tp   *contract.TracePool
}

// NewUnitRunner builds a runner for cfg's campaign. The configuration must
// match the coordinator's exactly; ConfigFP is what the join handshake
// compares.
func NewUnitRunner(cfg Config) (*UnitRunner, error) {
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if corpus {
		return nil, ErrDistCorpus
	}
	pool, err := executor.NewPool(c.base.Exec, c.base.DefenseFactory, 1)
	if err != nil {
		return nil, err
	}
	exec, err := pool.Acquire(context.Background())
	if err != nil {
		return nil, err
	}
	return &UnitRunner{c: c, pool: pool, exec: exec, tp: &contract.TracePool{}}, nil
}

// ConfigFP is the campaign configuration fingerprint the runner was built
// for.
func (r *UnitRunner) ConfigFP() uint64 { return r.c.configFP }

// FrontendName names the campaign's ISA frontend.
func (r *UnitRunner) FrontendName() string { return r.c.frontendName }

// Run executes unit u and returns its serialized result and PRNG draw
// count. Panics are NOT swallowed here: a simulator panic must kill the
// worker process (its lease lapses and the unit is re-run elsewhere, or
// quarantined by the coordinator's guarded local path after the
// reassignment cap) rather than silently submitting a degraded result —
// that is what keeps a distributed campaign's violation set bit-identical
// to a single-process run's.
func (r *UnitRunner) Run(ctx context.Context, id UnitID) (checkpoint.ResultRec, uint64, error) {
	if id.Inst < 0 || id.Inst >= r.c.instances || id.Prog < 0 || id.Prog >= r.c.programs {
		return checkpoint.ResultRec{}, 0, fmt.Errorf("engine: unit (%d,%d) out of campaign bounds %dx%d",
			id.Inst, id.Prog, r.c.instances, r.c.programs)
	}
	u := unit{
		inst: id.Inst,
		prog: id.Prog,
		seed: fuzzer.UnitSeed(fuzzer.InstanceSeed(r.c.base.Seed, id.Inst), id.Prog),
	}
	r.c.inject.UnitStart(u.inst, u.prog)
	res, _, draws, err := r.c.runUnit(ctx, r.exec, generator.Random{}, u, r.tp)
	if err != nil {
		return checkpoint.ResultRec{}, 0, err
	}
	return checkpoint.EncodeResult(res), draws, nil
}
