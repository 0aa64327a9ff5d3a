package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// checkFolded fails unless every result cell below each instance's fold
// point has been released, and every program held is one admission still
// needs (checkHeldPrograms); it reports the fold points.
func checkFolded(t *testing.T, tag string, d *DistCampaign) []int {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	checkHeldPrograms(t, tag, d)
	c := d.c
	next := make([]int, c.instances)
	for i, f := range c.folds {
		next[i] = f.next
		for p := 0; p < f.next; p++ {
			if c.results[i][p] != nil {
				t.Errorf("%s: unit (%d,%d) is folded (fold point %d) but its result is still held", tag, i, p, f.next)
			}
		}
		if f.viol >= f.next {
			t.Errorf("%s: instance %d's first violation %d lies past its fold point %d", tag, i, f.viol, f.next)
		}
	}
	return next
}

// checkHeldPrograms fails unless the campaign holds a program only for a
// unit of the open window that the admission front has not reached, or for
// one it admitted — a corpus entry until the epoch commits. Under d.mu.
func checkHeldPrograms(t *testing.T, tag string, d *DistCampaign) {
	t.Helper()
	c := d.c
	if c.progs == nil {
		return
	}
	admitted := map[isa.SourceProgram]bool{}
	for _, e := range c.entries {
		admitted[e.Prog] = true
	}
	for i := range c.progs {
		for p, prog := range c.progs[i] {
			switch {
			case prog == nil:
			case p < d.lo || p >= d.hi:
				t.Errorf("%s: unit (%d,%d) outside the open window [%d,%d) holds its program", tag, i, p, d.lo, d.hi)
			case d.passedLocked(unit{inst: i, prog: p}) && !admitted[prog]:
				t.Errorf("%s: unit (%d,%d) was passed over by admission but holds its program", tag, i, p)
			}
		}
	}
}

// frontPoint is where the admission front stands in instance i's window:
// past it, at it, or before it. Under d.mu.
func frontPoint(d *DistCampaign, i int) int {
	switch {
	case i < d.frontInst:
		return d.hi
	case i == d.frontInst:
		return d.frontProg
	}
	return d.lo
}

// checkAllFolded fails unless every instance folded every unit.
func checkAllFolded(t *testing.T, tag string, d *DistCampaign) {
	t.Helper()
	for i, next := range checkFolded(t, tag, d) {
		if next != d.c.programs {
			t.Errorf("%s: instance %d folded %d of %d units", tag, i, next, d.c.programs)
		}
	}
}

// TestFoldReleasesUnits: a unit's result folds into its instance as soon as
// every earlier unit of the instance has, and its cell is released then, on
// every path that settles units — workers of the random and corpus
// strategies, stop-on-first, remote results folded out of order, and a
// campaign killed and resumed from its log — with the outcome unchanged.
func TestFoldReleasesUnits(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, cfg Config) (*DistCampaign, *fuzzer.CampaignResult) {
		t.Helper()
		d, res, err := runCampaign(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}

	t.Run("random", func(t *testing.T) {
		cfg := engineConfig(1, 2, 12)
		cfg.Workers = 2
		d, res := run(t, cfg)
		checkAllFolded(t, "random", d)
		if len(res.Violations) == 0 {
			t.Fatal("no violations: the fold went untested on violating units")
		}
	})

	t.Run("stop-on-first", func(t *testing.T) {
		cfg := engineConfig(5, 2, 20)
		cfg.Campaign.Base.StopOnFirstViolation = true
		cfg.Workers = 2
		d, res := run(t, cfg)
		next := checkFolded(t, "stop-on-first", d)
		for i, inst := range res.Instances {
			if len(inst.Violations) == 0 {
				if next[i] != d.c.programs {
					t.Errorf("instance %d found nothing but folded only %d units", i, next[i])
				}
				continue
			}
			// Every unit up to the cut ran, so the fold has crossed it.
			if cut := inst.Violations[0].ProgramIndex; next[i] <= cut {
				t.Errorf("instance %d: fold point %d has not crossed the cut %d", i, next[i], cut)
			}
		}
	})

	t.Run("corpus", func(t *testing.T) {
		cfg := engineConfig(1, 2, 12)
		cfg.Strategy, cfg.Epochs, cfg.Workers = StrategyCorpus, 3, 2
		clean, want := run(t, cfg)
		checkAllFolded(t, "corpus", clean)

		// Interrupted in epoch 1: the admission front has passed the
		// units of the open epoch that settled, every instance's fold has
		// followed it, and the result still counts the interrupted unit.
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		inj := faultinject.New()
		inj.ArmCancel(11, cancel) // epoch 0 is 2×4 units; two of epoch 1 finish first
		cfg.Inject, cfg.Workers = inj, 1
		d, res, err := runCampaign(runCtx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
		}
		checkFolded(t, "corpus, interrupted", d)
		for i := range d.c.folds {
			if f, front := d.c.folds[i], frontPoint(d, i); f.limit != front || f.next != front {
				t.Errorf("instance %d: fold point %d, limit %d; want both at the admission front, %d", i, f.next, f.limit, front)
			}
		}
		if d.frontInst != 0 || d.frontProg != 6 {
			t.Errorf("admission front at (%d,%d), want (0,6): past the two units of epoch 1 that settled", d.frontInst, d.frontProg)
		}
		if got, total := res.TestCases, want.TestCases; got == 0 || got >= total {
			t.Errorf("interrupted result counts %d cases, want some of the %d", got, total)
		}
	})

	t.Run("record-remote", func(t *testing.T) {
		cfg := engineConfig(7, 2, 8)
		want, err := RunCampaign(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := NewDistCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := NewUnitRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// In reverse: nothing folds until an instance's unit 0 arrives,
		// then all of it at once.
		pending := dc.Pending()
		for k := len(pending) - 1; k >= 0; k-- {
			u := pending[k]
			rec, draws, err := runner.Run(ctx, u)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dc.RecordRemote(u, rec, draws); err != nil {
				t.Fatal(err)
			}
			next := checkFolded(t, fmt.Sprintf("after (%d,%d)", u.Inst, u.Prog), dc)
			if wantNext := map[bool]int{true: 8, false: 0}[u.Prog == 0]; next[u.Inst] != wantNext {
				t.Errorf("after (%d,%d): fold point %d, want %d", u.Inst, u.Prog, next[u.Inst], wantNext)
			}
		}
		checkAllFolded(t, "record-remote", dc)
		if got, want := fuzzer.ViolationFingerprint(dc.Result().Violations), fuzzer.ViolationFingerprint(want.Violations); got != want {
			t.Errorf("remote fold fingerprint %#x, single-process %#x", got, want)
		}
	})

	t.Run("kill-and-resume", func(t *testing.T) {
		_, clean := run(t, engineConfig(1, 2, 12))
		dir := t.TempDir()
		inj := faultinject.New()
		inj.Arm(faultinject.KindCrashInAppend, 13, 40)
		cfg := engineConfig(1, 2, 12)
		cfg.Workers, cfg.CheckpointDir, cfg.Inject = 2, dir, inj
		d, _, err := runCampaign(ctx, cfg)
		if !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("killed run: err = %v, want ErrInjectedCrash", err)
		}
		checkAllFolded(t, "killed", d) // the log failed, the campaign did not

		cfg = engineConfig(1, 2, 12)
		cfg.CheckpointDir, cfg.Resume = dir, true
		d, res := run(t, cfg)
		checkAllFolded(t, "resumed", d)
		if got, want := fingerprint(res), fingerprint(clean); got != want {
			t.Errorf("resumed fingerprint %#x, uninterrupted %#x", got, want)
		}
	})
}

// timeless returns a copy of r with everything that measures time zeroed
// and the violations' traces dropped, for comparing results by what they
// say.
func timeless(r *fuzzer.Result) fuzzer.Result {
	out := *r
	out.Elapsed, out.GenTime, out.ModelTime = 0, 0, 0
	m := &out.Metrics
	m.Startup, m.Prime, m.Simulate, m.TraceExtract, m.Digest = 0, 0, 0, 0, 0
	out.Violations = nil
	for _, v := range r.Violations {
		c := *v
		c.DetectedAt, c.TraceA, c.TraceB = 0, nil, nil
		out.Violations = append(out.Violations, &c)
	}
	return out
}

// TestResultSameAtAnyWorkerCount: what Result() returns — every instance's
// counters, coverage and violations, timings aside — is the same at 1, 2
// and 4 workers, whichever order the fold saw the units settle in.
func TestResultSameAtAnyWorkerCount(t *testing.T) {
	for _, strategy := range []string{StrategyRandom, StrategyCorpus} {
		var want []fuzzer.Result
		for _, workers := range []int{1, 2, 4} {
			cfg := engineConfig(1, 3, 12)
			cfg.Strategy, cfg.Workers = strategy, workers
			res, err := RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []fuzzer.Result
			for _, inst := range res.Instances {
				got = append(got, timeless(inst))
			}
			if want == nil {
				want = got
				if len(res.Violations) == 0 {
					t.Fatalf("%s: no violations to compare", strategy)
				}
				continue
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: instance %d at %d workers differs from 1 worker:\n got  %+v\n want %+v", strategy, i, workers, got[i], want[i])
				}
			}
		}
	}
}

// footprintPerViolation is the most live heap one finished campaign may
// hold per violation it found: the violation with its program, its two
// inputs in their binary form, its contract trace and its validation
// traces, plus the campaign result's share (≈ 4.3 KB measured). One input
// held as a materialized page would take 4 KB on its own.
const footprintPerViolation = 6 << 10

// TestViolationFootprint measures what a finished InvisiSpec campaign's
// result keeps alive: the live heap after a collection with the result
// held, less the same without it, per violation.
func TestViolationFootprint(t *testing.T) {
	cfg := engineConfig(1, 4, 150)
	cfg.Campaign.Base.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	cfg.Workers = 2
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Violations)
	if n < 20 {
		t.Fatalf("%d violations: too few to measure", n)
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(res)
	res = nil
	runtime.GC()
	runtime.ReadMemStats(&freed)
	per := (int64(held.HeapAlloc) - int64(freed.HeapAlloc)) / int64(n)
	t.Logf("%d violations hold %d bytes each", n, per)
	if per > footprintPerViolation {
		t.Errorf("a violation holds %d bytes of live heap, budget %d", per, footprintPerViolation)
	}
}

// checkpointLogDigest pins the log a fixed-seed campaign writes on one
// worker: the kind and payload of every record, with the unit records'
// timings zeroed (they are the only bytes that differ from run to run).
// Logs written by earlier binaries resume, so the bytes may not move.
const checkpointLogDigest = 0x4eba06dac2d8ae40

// TestCheckpointLogBytes: the log format does not move. Violation inputs
// are written as the bytes a violation holds, which must be the bytes the
// log always held.
func TestCheckpointLogBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(1, 2, 12)
	cfg.Campaign.Base.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	cfg.Workers, cfg.CheckpointDir = 1, dir
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violations: the log's violation records went unpinned")
	}
	raw, _ := readLog(t, dir)
	h := fnv.New64a()
	_, err = checkpoint.Walk(raw, func(kind byte, payload []byte, _ int) error {
		if kind == checkpoint.RecUnit {
			var u checkpoint.UnitRec
			if err := u.UnmarshalBinary(payload); err != nil {
				return err
			}
			r := &u.Result
			r.Elapsed, r.GenTime, r.ModelTime = 0, 0, 0
			m := &r.Metrics
			m.Startup, m.Prime, m.Simulate, m.TraceExtract, m.Digest = 0, 0, 0, 0, 0
			for i := range r.Violations {
				r.Violations[i].DetectedAt = 0
			}
			if payload, err = u.AppendBinary(nil); err != nil {
				return err
			}
		}
		h.Write([]byte{kind})
		h.Write(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != checkpointLogDigest {
		t.Errorf("checkpoint log digest %#x, pinned %#x", got, uint64(checkpointLogDigest))
	}
}

// TestFoldAllocatesNothing: settling a unit that found nothing folds it
// without allocating — the fold's cost does not grow with the campaign.
func TestFoldAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const programs = 200
	c, _, err := newCampaign(engineConfig(1, 1, programs))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDistCampaign(c, false)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]fuzzer.Result, programs)
	for p := range results {
		results[p] = fuzzer.Result{TestCases: 30, Programs: 1}
	}
	p := 0
	allocs := testing.AllocsPerRun(programs-1, func() {
		d.settle(c.unitAt(0, p), unitOutcome{res: &results[p], done: true}, nil)
		p++
	})
	if allocs != 0 {
		t.Errorf("settling and folding a unit allocates %.1f objects", allocs)
	}
	if next := c.folds[0].next; next != programs {
		t.Errorf("fold point %d after settling all %d units in order", next, programs)
	}
}
