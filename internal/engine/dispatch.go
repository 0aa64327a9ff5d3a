// The scheduler and the fold. Every campaign runs through a DistCampaign:
// RunCampaign's workers draw units from its cursor and settle them, and the
// coordinator folds remote results through the same settle — so a
// distributed run is bit-identical to a single-process run at the same
// seed. Distributed workers own a UnitRunner — a persistent executor and
// workspace that run arbitrary units of the campaign by coordinates, exactly
// as an engine worker would.
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
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
)

// UnitID names one work unit by its deterministic coordinates.
type UnitID struct {
	Inst, Prog int
}

// ErrDistCorpus rejects distributed corpus-strategy campaigns.
var ErrDistCorpus = errors.New("engine: distributed campaigns support the random strategy only (corpus epochs are cross-unit barriers)")

// DistCampaign schedules a campaign and folds its results: it tracks which
// units are done, hands out the open ones from one cursor, folds each
// result exactly once, and appends to/restores from the campaign's
// checkpoint log. RunCampaign drives one in-process; the coordinator drives
// one for a distributed campaign, folding remote results and quarantining
// the units that kill their workers — so a lost coordinator resumes from
// its own checkpoint, and a distributed checkpoint even resumes under the
// single-process engine (and vice versa).
//
// All methods are safe for concurrent use. Results fold into their
// instance's accumulator in program order as soon as every earlier unit of
// the instance has folded, regardless of submission order, which is what
// makes the distributed outcome bit-identical to the single-process one —
// and keeps a campaign's memory from growing with its unit count.
type DistCampaign struct {
	// foldMu orders folds against commits. A fold holds it shared from
	// marking its unit done until the unit's record is in the checkpoint
	// log; SaveCheckpoint holds it exclusively while it decides whether the
	// campaign is complete and appends the commit record. So a commit record
	// never precedes the record of a unit it vouches for, and folds still
	// encode and append side by side. Taken before mu.
	foldMu sync.RWMutex

	mu sync.Mutex
	c  *campaign

	// remaining counts the units still needing execution: not done and not
	// beyond their instance's stop-on-first cut. Every fold and cut move
	// keeps it current, so Complete is a compare; finished is closed when it
	// reaches zero.
	remaining int
	finished  chan struct{}
	// cuts counts the stop-on-first cut moves, so that whoever leases units
	// out learns cheaply when some of them closed.
	cuts int
	// The scheduling cursor: every open unit of the program window
	// [lo, hi) before (curInst, curProg) in (instance, program) order has
	// been handed out by Next. The window is the whole grid except while
	// RunCampaign runs a corpus epoch.
	curInst, curProg int
	lo, hi           int
	// The admission front (corpus strategy only) follows the cursor in its
	// own order: every unit of the window before (frontInst, frontProg)
	// has been passed by admitLocked.
	frontInst, frontProg int
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
		// Refused before the log opens: a fresh log replaces an existing one.
		return nil, ErrDistCorpus
	}
	return newDistCampaign(c, cfg.Resume)
}

// newDistCampaign opens c's checkpoint log (restoring a resumed campaign's
// progress from it) and builds the scheduler over c.
func newDistCampaign(c *campaign, resume bool) (*DistCampaign, error) {
	if err := c.openLog(resume); err != nil {
		return nil, err
	}
	d := &DistCampaign{c: c, finished: make(chan struct{}), hi: c.programs}
	// The one full scan of the grid: what a resumed log left open.
	for i := 0; i < c.instances; i++ {
		for p := 0; p <= c.stopAt[i]; p++ {
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

// Cuts is how many times a stop-on-first cut has moved: a change means
// units that were open may not be any more.
func (d *DistCampaign) Cuts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cuts
}

// Finished is closed once the campaign is complete — already so when a
// resumed log left nothing open.
func (d *DistCampaign) Finished() <-chan struct{} { return d.finished }

// Next hands out the next unit needing execution, in (instance, program)
// order: not done, and — under StopOnFirstViolation — not beyond the
// instance's current cut (a violation at program p makes every unit q > p
// of that instance dead work; the merge drops their results anyway). Each
// unit is handed out once: whoever takes one and does not see it folded
// (a lapsed lease) schedules it again itself. The cursor only moves
// forward, so a campaign's calls cost O(units) together.
func (d *DistCampaign) Next() (UnitID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.curInst < d.c.instances {
		if d.curProg >= d.hi || d.curProg > d.c.stopAt[d.curInst] {
			d.curInst, d.curProg = d.curInst+1, d.lo
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

// setWindow restricts the cursor to programs [lo, hi) of every instance
// and restarts it at (0, lo). Under the corpus strategy the admission front
// restarts there too, and passes whatever a resumed log restored.
func (d *DistCampaign) setWindow(lo, hi int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lo, d.hi, d.curInst, d.curProg = lo, hi, 0, lo
	if d.c.progs != nil {
		d.frontInst, d.frontProg = 0, lo
		d.admitLocked()
	}
}

// admitLocked advances the admission front over the window's settled units
// in (instance, program) order — the cursor's, so the front trails it by
// the units still in flight — and admits each unit it passes: its coverage
// merges into the campaign's map, and it becomes a corpus entry when that
// added a feature or it confirmed a violation. Only an admitted unit keeps
// its program, until the epoch commits. Under StopOnFirstViolation the
// front leaves an instance at its cut, the first violating unit: units past
// it may or may not have run, and are dead work. So the corpus is the same
// at any worker count, and the instance's fold may follow the front.
func (d *DistCampaign) admitLocked() {
	c := d.c
	for d.frontInst < c.instances {
		i, p := d.frontInst, d.frontProg
		if p >= d.hi || p > c.stopAt[i] {
			clear(c.progs[i][p:d.hi]) // dead work past a cut
			c.folds[i].limit = d.hi
			c.fold(i)
			d.frontInst, d.frontProg = i+1, d.lo
			continue
		}
		if !c.done[i][p] {
			break
		}
		// A unit without a program adds nothing: it was quarantined, timed
		// out, or passed over before the log it was restored from ended.
		if res, prog := c.results[i][p], c.progs[i][p]; res != nil && prog != nil {
			violating := len(res.Violations) > 0
			if newBits := c.cover.Merge(res.Coverage); newBits > 0 || violating {
				c.entries = append(c.entries, generator.CorpusEntry{Prog: prog, NewBits: newBits, Violating: violating})
			} else {
				c.progs[i][p] = nil
			}
		}
		d.frontProg++
		c.folds[i].limit = d.frontProg
	}
	if d.frontInst < c.instances {
		c.fold(d.frontInst)
	}
}

// passedLocked reports whether the admission front has passed unit u: a
// unit settling behind it is dead work past a stop-on-first cut, whose
// program nobody needs.
func (d *DistCampaign) passedLocked(u unit) bool {
	return u.inst < d.frontInst || u.inst == d.frontInst && u.prog < d.frontProg
}

// closeWindow ends a corpus epoch that ran to completion and is about to
// commit: its admitted programs live on in the corpus, so every program
// cell of the window is released.
func (d *DistCampaign) closeWindow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, progs := range d.c.progs {
		clear(progs[d.lo:d.hi])
	}
}

// Open reports whether unit u still needs execution.
func (d *DistCampaign) Open(u UnitID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inBounds(u) && !d.c.done[u.Inst][u.Prog] && u.Prog <= d.c.stopAt[u.Inst]
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
	result, err := rec.AppendBinary(nil)
	if err != nil {
		return false, err
	}
	return d.RecordEncoded(u, draws, result)
}

// RecordEncoded is RecordRemote for a result as its worker encoded it
// (ResultRec.AppendBinary): decoded here, once, and — on its first fold —
// written into the unit's checkpoint record byte for byte as it arrived.
// A result that does not decode is an error, like one out of bounds.
func (d *DistCampaign) RecordEncoded(u UnitID, draws uint64, result []byte) (folded bool, err error) {
	if !d.inBounds(u) {
		return false, fmt.Errorf("engine: remote result for unit (%d,%d) out of campaign bounds %dx%d",
			u.Inst, u.Prog, d.c.instances, d.c.programs)
	}
	var rec checkpoint.ResultRec
	if err := rec.UnmarshalBinary(result); err != nil {
		return false, err
	}
	out := unitOutcome{res: rec.Decode(), draws: draws, done: true}
	return d.settle(unit{inst: u.Inst, prog: u.Prog}, out, result), nil
}

// settle folds one unit's outcome — run here or, with encoded its result's
// encoding, by a remote worker — and reports whether it did: the first fold
// of a unit wins, and a later one (a late lease's result racing its
// quarantine, a duplicate submit) changes nothing. A final outcome is
// accounted (remaining, the stop-on-first cut) and its record appended to
// the checkpoint log outside the campaign lock, so folds encode and append
// side by side; an interrupted one keeps its partial result and leaves the
// unit open.
func (d *DistCampaign) settle(u unit, out unitOutcome, encoded []byte) bool {
	d.foldMu.RLock()
	defer d.foldMu.RUnlock()
	c := d.c
	d.mu.Lock()
	if c.done[u.inst][u.prog] {
		d.mu.Unlock()
		return false
	}
	c.results[u.inst][u.prog] = out.res
	if c.progs != nil && !d.passedLocked(u) {
		c.progs[u.inst][u.prog] = out.prog
	}
	if out.done {
		c.draws[u.inst][u.prog] = out.draws
		c.done[u.inst][u.prog] = true
		d.accountLocked(u, out.res)
		if c.progs != nil {
			d.admitLocked()
		}
		c.fold(u.inst)
	}
	if c.settled != nil {
		c.settled(d)
	}
	d.mu.Unlock()
	if out.done {
		c.logUnit(u, out.res, out.draws, encoded)
	}
	return true
}

// accountLocked settles remaining after unit u's first final fold, and
// moves the instance's stop-on-first cut down to u.prog after a violating
// result. A unit at or before the cut was counted; one beyond it is dead
// work folding late and never was. A cut moving down from old to u.prog
// kills the not-done units in between — the ranges of an instance's
// successive moves are disjoint, so they cost O(programs) per instance over
// the whole campaign.
func (d *DistCampaign) accountLocked(u unit, res *fuzzer.Result) {
	old := d.c.stopAt[u.inst]
	if u.prog > old {
		return
	}
	d.remaining--
	if d.c.base.StopOnFirstViolation && len(res.Violations) > 0 && u.prog < old {
		d.c.stopAt[u.inst] = u.prog
		d.cuts++
		for p := u.prog + 1; p <= old; p++ {
			if !d.c.done[u.inst][p] {
				d.remaining--
			}
		}
	}
	if d.remaining == 0 {
		close(d.finished)
	}
}

// Quarantine folds unit u without running it, as a guarded panic folds in
// a single-process run: a result counting Metrics.Quarantined, and a repro
// bundle of kind checkpoint.BundleLost that says why. The coordinator
// quarantines a unit that lost too many workers. It reports whether it
// folded: a unit done or past its cut is left as it is.
func (d *DistCampaign) Quarantine(id UnitID, why string) bool {
	if !d.Open(id) {
		return false
	}
	u := d.c.unitAt(id.Inst, id.Prog)
	d.c.quarantine(u, checkpoint.BundleLost, why, "")
	res := &fuzzer.Result{}
	res.Metrics.Quarantined = 1
	return d.settle(u, unitOutcome{res: res, done: true}, nil)
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

// Result returns the campaign outcome, folded in (instance, program) order
// — what RunCampaign returns, so fingerprints are directly comparable with
// single-process runs. It copies the instances' folds: a unit folded later
// does not change a result already returned.
func (d *DistCampaign) Result() *fuzzer.CampaignResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := &fuzzer.CampaignResult{Instances: make([]*fuzzer.Result, d.c.instances)}
	for i := 0; i < d.c.instances; i++ {
		out.Instances[i] = d.c.instanceResult(i)
	}
	out.Elapsed = time.Since(d.c.start)
	out.Aggregate()
	return out
}

// UnitRunner executes individual units of a campaign, standalone, on a
// persistent executor and workspace — the worker's half of a distributed
// campaign. Every Run starts from the same reset context an engine worker
// starts from, so the unit result depends only on the unit
// coordinates and the campaign seed, never on which worker ran it or in
// what order.
type UnitRunner struct {
	c *campaign
	s *slot
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
	return &UnitRunner{c: c, s: c.newSlot()}, nil
}

// ConfigFP is the campaign configuration fingerprint the runner was built
// for.
func (r *UnitRunner) ConfigFP() uint64 { return r.c.configFP }

// FrontendName names the campaign's ISA frontend.
func (r *UnitRunner) FrontendName() string { return r.c.frontendName }

// Run executes unit u and returns its serialized result and PRNG draw
// count. Panics are NOT swallowed here: a simulator panic must kill the
// worker process (its lease lapses and the unit is re-run elsewhere, or
// quarantined unrun by the coordinator past the reassignment cap) rather
// than silently submitting a degraded result — that is what keeps a
// distributed campaign's violation set bit-identical to a single-process
// run's.
func (r *UnitRunner) Run(ctx context.Context, id UnitID) (checkpoint.ResultRec, uint64, error) {
	if id.Inst < 0 || id.Inst >= r.c.instances || id.Prog < 0 || id.Prog >= r.c.programs {
		return checkpoint.ResultRec{}, 0, fmt.Errorf("engine: unit (%d,%d) out of campaign bounds %dx%d",
			id.Inst, id.Prog, r.c.instances, r.c.programs)
	}
	u := r.c.unitAt(id.Inst, id.Prog)
	r.c.inject.UnitStart(u.inst, u.prog)
	res, _, draws, err := r.c.runUnit(ctx, r.s.exec, r.s.ws, generator.Random{}, u)
	if err != nil {
		return checkpoint.ResultRec{}, 0, err
	}
	return checkpoint.EncodeResult(res), draws, nil
}
