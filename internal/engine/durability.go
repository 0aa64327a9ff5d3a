package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// campaignFingerprint digests the campaign configuration into the identity
// a checkpoint (or quarantine bundle) is bound to. Resume refuses state
// whose fingerprint disagrees with the configured campaign: the determinism
// contract only holds for an identical configuration, so splicing restored
// units into a differently-configured run would silently produce garbage.
//
// Exec.FullPrime, the one selector pinned bit-identical by the determinism
// suite, is zeroed before digesting: it changes how fast a campaign runs,
// never what it produces, so a checkpoint written under one setting resumes
// cleanly under the other. Exec.Coverage is likewise zeroed — it is derived
// from the strategy, which is digested by name. The frontend is digested by
// name too (the Config field is an interface whose rendering would be an
// unstable pointer). Every other field renders through %+v, so adding or
// removing one changes the fingerprint: state written by a binary with a
// different Config shape is refused, by design. maxviol renders 0, what
// the retired fuzzer.Config.MaxViolationsPerProgram read in every campaign
// (none set it), so that no fingerprint moved when the cap became a
// constant.
func campaignFingerprint(base fuzzer.Config, defense, frontend string, instances, epochs int, strategy string) uint64 {
	exec := base.Exec
	exec.FullPrime, exec.Coverage = false, false
	h := fnv.New64a()
	fmt.Fprintf(h, "contract=%+v|gen=%+v|exec=%+v|defense=%s|frontend=%s|seed=%d|programs=%d|baseinputs=%d|mutants=%d|stopfirst=%t|maxviol=0|instances=%d|epochs=%d|strategy=%s",
		base.Contract, base.Gen, exec, defense, frontend, base.Seed, base.Programs,
		base.BaseInputs, base.MutantsPerInput, base.StopOnFirstViolation,
		instances, epochs, strategy)
	return h.Sum64()
}

// openLog opens the campaign's checkpoint log — a no-op without a
// checkpoint directory. With resume set, an existing log is replayed into
// the campaign and reopened for appending where its last applied record
// ends; a missing one is a fresh start, a corrupt or mismatched one an
// error. A log that cannot be created (unwritable directory, full disk)
// does not stop the campaign: it runs without durability and the failure is
// reported once, with its result.
func (c *campaign) openLog(resume bool) error {
	if c.ckptDir == "" {
		return nil
	}
	if resume {
		st, log, err := checkpoint.Resume(c.ckptDir, c.inject)
		if err == nil {
			if err := c.restore(st); err != nil {
				log.Close()
				return err
			}
			c.log, c.loggedEpochs, c.loggedEntries = log, st.EpochsDone, len(c.entries)
			return nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		// No checkpoint yet; resume of a campaign that never started is a
		// fresh start.
	}
	log, err := checkpoint.Create(c.ckptDir, &checkpoint.State{
		ConfigFP:  c.configFP,
		Seed:      c.base.Seed,
		Instances: c.instances,
		Programs:  c.programs,
		Epochs:    c.epochs,
		Strategy:  c.strategyName,
		Frontend:  c.frontendName,
	}, c.inject)
	if err != nil {
		c.failLog(err)
		return nil
	}
	c.log = log
	return nil
}

// closeLog releases the checkpoint file once the campaign is over.
func (c *campaign) closeLog() {
	if c.log != nil {
		c.log.Close() // everything that had to be durable was synced at its barrier
	}
}

// logUnit appends a finished unit's record to the checkpoint log, on the
// goroutine that settled the unit: res encoded into the record, or, when
// encoded is not nil, encoded — res's bytes as a worker sent them —
// written as they are. Without a checkpoint log it is one nil check. A
// failed append leaves a hole: the unit is done here but absent from the
// log, so resume will run it again.
func (c *campaign) logUnit(u unit, res *fuzzer.Result, draws uint64, encoded []byte) {
	if c.log == nil {
		return
	}
	var err error
	if encoded != nil {
		err = c.log.AppendEncodedUnit(u.inst, u.prog, draws, encoded)
	} else {
		err = c.log.AppendUnit(&checkpoint.UnitRec{Inst: u.inst, Prog: u.prog, RNGDraws: draws, Result: checkpoint.EncodeResult(res)})
	}
	if err != nil {
		c.failLog(err)
	}
}

// failLog notes a failed unit append (or log creation). Only the first
// failure is kept — a full disk fails every append the same way.
func (c *campaign) failLog(err error) {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.logErr == nil {
		c.logErr = err
	}
}

// logFailure returns the first failed unit append, if any. While it is
// non-nil the log has a hole — a unit done here but absent there — so no
// commit or pending record may vouch for the units written so far
// (appendBoundary), and resume will run the missing unit again.
func (c *campaign) logFailure() error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.logErr
}

// appendBoundary appends what a barrier owes the log. epochsDone is how
// many epochs have completed and been admitted: when that is more than the
// log's last commit record says, a commit record with the corpus entries
// admitted since then and the merged coverage; and, when done units of the
// next epoch exist (a cancelled campaign, its workers drained), a pending
// record naming them, with the programs resume needs to admit that epoch
// again: those of the units admitted so far and of those the admission
// front has not reached. A unit the front passed without admitting it added
// no coverage feature, so resume passes over it without its program and
// admits the same entries. The unit records themselves are already there —
// each worker appended its own. The caller owns the barrier: no unit is in
// flight.
func (c *campaign) appendBoundary(epochsDone int) error {
	if c.logFailure() != nil {
		return nil // reported by the caller; resume re-runs from the last commit
	}
	if epochsDone > c.loggedEpochs {
		var corpus []checkpoint.CorpusRec
		var cover []uint64
		if c.cover != nil {
			cover = c.cover.Words()
			for _, e := range c.entries[c.loggedEntries:] {
				corpus = append(corpus, checkpoint.CorpusRec{Src: checkpoint.EncodeProg(e.Prog), NewBits: e.NewBits, Violating: e.Violating})
			}
		}
		if err := c.log.AppendCommit(epochsDone, corpus, cover); err != nil {
			return err
		}
		c.loggedEpochs, c.loggedEntries = epochsDone, len(c.entries)
	}
	if c.progs == nil || epochsDone >= c.epochs {
		return nil
	}
	var pending []checkpoint.PendingRec
	lo, hi := epochBounds(c.programs, c.epochs, epochsDone)
	for i := 0; i < c.instances; i++ {
		for p := lo; p < hi; p++ {
			if !c.done[i][p] {
				continue
			}
			rec := checkpoint.PendingRec{Inst: i, Prog: p}
			if c.progs[i][p] != nil { // nil: passed over, quarantined or timed out
				rec.GenSrc = checkpoint.EncodeProg(c.progs[i][p])
			}
			pending = append(pending, rec)
		}
	}
	if pending == nil {
		return nil
	}
	return c.log.AppendPending(pending)
}

// saveCheckpoint makes the campaign's progress durable at a barrier: the
// boundary records, then the one fsync. A no-op without a checkpoint log.
func (c *campaign) saveCheckpoint(epochsDone int) error {
	if c.log == nil {
		return nil
	}
	if err := c.appendBoundary(epochsDone); err != nil {
		return err
	}
	return c.log.Sync()
}

// restore splices a loaded checkpoint into the campaign: identity check,
// per-unit results/progress/programs, corpus entries and merged coverage,
// and the re-derived stop-on-first cuts. The caller then starts the epoch
// loop at st.EpochsDone; workers skip done units, so a resumed campaign
// runs exactly the units the interrupted one never finished.
func (c *campaign) restore(st *checkpoint.State) error {
	if st.ConfigFP != c.configFP {
		return fmt.Errorf("engine: checkpoint was written by a different campaign configuration (fingerprint %016x, configured %016x)",
			st.ConfigFP, c.configFP)
	}
	if st.Frontend != c.frontendName {
		return fmt.Errorf("engine: checkpoint was written by the %q ISA frontend, campaign is configured for %q — refusing to replay units under the wrong decoder",
			st.Frontend, c.frontendName)
	}
	if st.Seed != c.base.Seed || st.Instances != c.instances ||
		st.Programs != c.programs || st.Epochs != c.epochs || st.Strategy != c.strategyName {
		return fmt.Errorf("engine: checkpoint shape (seed=%d %dx%d epochs=%d %s) does not match campaign (seed=%d %dx%d epochs=%d %s)",
			st.Seed, st.Instances, st.Programs, st.Epochs, st.Strategy,
			c.base.Seed, c.instances, c.programs, c.epochs, c.strategyName)
	}
	for _, u := range st.Units {
		if u.Inst < 0 || u.Inst >= c.instances || u.Prog < 0 || u.Prog >= c.programs {
			return fmt.Errorf("engine: checkpoint unit (%d,%d) out of campaign bounds %dx%d: %w",
				u.Inst, u.Prog, c.instances, c.programs, checkpoint.ErrCorrupt)
		}
		c.results[u.Inst][u.Prog] = u.Result.Decode()
		c.done[u.Inst][u.Prog] = true
		c.draws[u.Inst][u.Prog] = u.RNGDraws
		if c.progs != nil && u.GenSrc != nil {
			src, err := u.GenSrc.Decode()
			if err != nil {
				return fmt.Errorf("engine: checkpoint unit (%d,%d): %v: %w",
					u.Inst, u.Prog, err, checkpoint.ErrCorrupt)
			}
			c.progs[u.Inst][u.Prog] = src
		}
	}
	if c.cover != nil {
		c.cover.LoadWords(st.Coverage)
		for _, r := range st.Corpus {
			src, err := r.Src.Decode()
			if err != nil {
				return fmt.Errorf("engine: checkpoint corpus entry: %v: %w", err, checkpoint.ErrCorrupt)
			}
			c.entries = append(c.entries, generator.CorpusEntry{
				Prog: src, NewBits: r.NewBits, Violating: r.Violating,
			})
		}
	}
	for i := 0; i < c.instances; i++ {
		if c.progs != nil {
			// The admitted epochs fold; the open one's units wait for the
			// admission front, which passes them when its window opens.
			_, c.folds[i].limit = epochBounds(c.programs, c.epochs, st.EpochsDone-1)
		}
		c.fold(i)
		if c.base.StopOnFirstViolation {
			if p := c.firstViolatingIndex(i); p >= 0 {
				c.stopAt[i] = p
			}
		}
	}
	return nil
}

// QuarantineError reports a work unit whose pipeline panicked. The engine
// converts the panic into this error, writes a repro bundle, counts the
// unit in Metrics.Quarantined, and keeps the campaign going on a fresh
// executor; ReplayUnit returns it when a bundle reproduces its fault.
type QuarantineError struct {
	Inst, Prog int
	Value      string // the recovered panic value, rendered
	Stack      string // the panicking goroutine's stack
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("engine: unit (%d,%d) quarantined: panic: %s", e.Inst, e.Prog, e.Value)
}

// unitOutcome is what the isolation layer hands back to the worker loop.
type unitOutcome struct {
	res   *fuzzer.Result
	prog  isa.SourceProgram
	draws uint64
	err   error
	// done marks the unit finished for checkpoint purposes: completed, or
	// degraded to a counted quarantine/timeout that resume must not re-run.
	done bool
	// poison marks the worker's executor unfit for reuse — it panicked
	// mid-simulation or is still owned by an abandoned wedged goroutine.
	// The worker replaces it (and its workspace) with a new slot.
	poison bool
}

// runUnitIsolated runs one unit behind the fault-isolation layer: panics
// are quarantined (runUnitGuarded), and when a unit watchdog is configured
// the unit runs on its own goroutine with a deadline — a wedged unit is
// abandoned and degraded to a counted timeout instead of hanging the
// campaign. With no watchdog (the default) the unit runs inline on the
// worker goroutine and the only overhead is a deferred recover.
func (c *campaign) runUnitIsolated(ctx context.Context, exec *executor.Executor, ws *fuzzer.Workspace, strat generator.Strategy, u unit) unitOutcome {
	if c.unitTimeout <= 0 {
		return c.runUnitGuarded(ctx, exec, ws, strat, u)
	}
	ch := make(chan unitOutcome, 1)
	go func() { ch <- c.runUnitGuarded(ctx, exec, ws, strat, u) }()
	timer := time.NewTimer(c.unitTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		// The unit goroutine may be wedged forever; it is abandoned with
		// everything it references (executor, workspace) rather than
		// interrupted — simulation has no preemption points to cancel at.
		c.quarantine(u, checkpoint.BundleTimeout, fmt.Sprintf("unit exceeded %v watchdog deadline", c.unitTimeout), "")
		res := &fuzzer.Result{}
		res.Metrics.TimedOut = 1
		return unitOutcome{res: res, done: true, poison: true}
	}
}

// runUnitGuarded runs one unit with panic quarantine: a panic anywhere in
// the generate → collect → execute → validate pipeline is recovered,
// written out as a repro bundle, and degraded to a counted-quarantine
// result carrying a *QuarantineError.
func (c *campaign) runUnitGuarded(ctx context.Context, exec *executor.Executor, ws *fuzzer.Workspace, strat generator.Strategy, u unit) (out unitOutcome) {
	defer func() {
		if r := recover(); r != nil {
			qe := &QuarantineError{
				Inst:  u.inst,
				Prog:  u.prog,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
			c.quarantine(u, checkpoint.BundlePanic, qe.Value, qe.Stack)
			res := &fuzzer.Result{}
			res.Metrics.Quarantined = 1
			out = unitOutcome{res: res, err: qe, done: true, poison: true}
		}
	}()
	c.inject.UnitStart(u.inst, u.prog)
	res, prog, draws, err := c.runUnit(ctx, exec, ws, strat, u)
	return unitOutcome{res: res, prog: prog, draws: draws, err: err, done: err == nil}
}

// quarantine writes a repro bundle for a degraded unit. Best effort: the
// campaign has already isolated the fault, and a bundle-write failure (or
// the absence of a checkpoint directory) must not escalate it.
func (c *campaign) quarantine(u unit, kind, value, stack string) {
	if c.ckptDir == "" {
		return
	}
	_, _ = checkpoint.SaveBundle(c.ckptDir, &checkpoint.Bundle{
		ConfigFP: c.configFP,
		Defense:  c.defenseName,
		Contract: c.base.Contract.Name,
		Frontend: c.frontendName,
		Seed:     c.base.Seed,
		Inst:     u.inst,
		Prog:     u.prog,
		Kind:     kind,
		Value:    value,
		Stack:    stack,
	}, c.inject)
}

// ReplayUnit re-runs the work unit a quarantine bundle describes,
// standalone, against the same campaign configuration (cfg must be the
// campaign's engine config; the bundle's fingerprint is checked). Units are
// seed-deterministic, so the replay drives the identical generate →
// collect → execute pipeline the quarantined worker ran; if the fault
// reproduces, the returned error is the *QuarantineError describing it.
// inj (nil outside tests) lets the fault-injection suite re-arm the
// original injected fault.
//
// Replay uses the blind generation strategy; for corpus-strategy campaigns
// only first-epoch units (generated before any corpus existed) are
// guaranteed to replay bit-identically.
func ReplayUnit(ctx context.Context, cfg Config, b *checkpoint.Bundle, inj *faultinject.Injector) (*fuzzer.Result, error) {
	// The replay writes no checkpoint or bundle and runs the unit inline.
	cfg.CheckpointDir, cfg.Resume, cfg.UnitTimeout, cfg.Inject = "", false, 0, inj
	cfg.Campaign.Instances = max(cfg.Campaign.Instances, 1)
	c, corpus, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if b.Frontend != "" && b.Frontend != c.frontendName {
		return nil, fmt.Errorf("engine: bundle was captured on the %q ISA frontend, campaign is configured for %q — refusing to replay the unit under the wrong decoder",
			b.Frontend, c.frontendName)
	}
	if c.configFP != b.ConfigFP {
		return nil, fmt.Errorf("engine: bundle was captured under a different campaign configuration (fingerprint %016x, configured %016x)",
			b.ConfigFP, c.configFP)
	}
	if b.Inst < 0 || b.Inst >= c.instances || b.Prog < 0 || b.Prog >= c.programs {
		return nil, fmt.Errorf("engine: bundle unit (%d,%d) out of campaign bounds %dx%d",
			b.Inst, b.Prog, c.instances, c.programs)
	}
	s := c.newSlot()
	var strat generator.Strategy = generator.Random{}
	if corpus {
		strat = generator.NewCorpusStrategy(nil)
	}
	out := c.runUnitGuarded(ctx, s.exec, s.ws, strat, c.unitAt(b.Inst, b.Prog))
	return out.res, out.err
}
