package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Pending is the full scan the coordinator used to schedule from and to
// decide completion with, kept as the oracle for remaining and the cursor:
// the units still needing execution, in (instance, program) order — not
// done, and not beyond their instance's stop-on-first cut.
func (d *DistCampaign) Pending() []UnitID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []UnitID
	for i := 0; i < d.c.instances; i++ {
		for p := 0; p <= d.c.stopAt[i]; p++ {
			if !d.c.done[i][p] {
				out = append(out, UnitID{Inst: i, Prog: p})
			}
		}
	}
	return out
}

// foldRemote runs units on a UnitRunner of cfg's campaign and folds each
// result through RecordRemote: a worker's round trip without the network,
// and the only path by which a coordinator's log gets its units.
func foldRemote(t *testing.T, dc *DistCampaign, cfg Config, units []UnitID) {
	t.Helper()
	runner, err := NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		rec, draws, err := runner.Run(context.Background(), u)
		if err != nil {
			t.Fatalf("unit (%d,%d): %v", u.Inst, u.Prog, err)
		}
		if _, err := dc.RecordRemote(u, rec, draws); err != nil {
			t.Fatalf("unit (%d,%d): %v", u.Inst, u.Prog, err)
		}
	}
}

// TestDistCampaignLocalEquivalence proves the worker round trip —
// UnitRunner.Run + RecordRemote, including the serialize/deserialize hop —
// reproduces the single-process campaign's violation set bit for bit.
func TestDistCampaignLocalEquivalence(t *testing.T) {
	cfg := engineConfig(7, 2, 8)
	want, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fuzzer.ViolationFingerprint(want.Violations)

	t.Run("unit-runner-round-trip", func(t *testing.T) {
		dc, err := NewDistCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := NewUnitRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fold in deliberately scrambled order: results must be
		// order-independent.
		pending := dc.Pending()
		for i := len(pending) - 1; i >= 0; i-- {
			u := pending[i]
			rec, draws, err := runner.Run(context.Background(), u)
			if err != nil {
				t.Fatalf("unit (%d,%d): %v", u.Inst, u.Prog, err)
			}
			folded, err := dc.RecordRemote(u, rec, draws)
			if err != nil {
				t.Fatalf("unit (%d,%d): %v", u.Inst, u.Prog, err)
			}
			if !folded {
				t.Fatalf("unit (%d,%d): first fold reported duplicate", u.Inst, u.Prog)
			}
		}
		if !dc.Complete() {
			t.Fatal("campaign not complete after folding every unit")
		}
		res := dc.Result()
		if fp := fuzzer.ViolationFingerprint(res.Violations); fp != wantFP {
			t.Errorf("remote round-trip fingerprint %#x, want single-process %#x", fp, wantFP)
		}
	})
}

// TestRecordRemoteExactlyOnce pins the duplicate-submission contract:
// the first fold wins, every later fold of the same unit is dropped
// without changing the result, and out-of-bounds units are rejected.
func TestRecordRemoteExactlyOnce(t *testing.T) {
	cfg := engineConfig(7, 1, 4)
	dc, err := NewDistCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := UnitID{Inst: 0, Prog: 2}
	rec, draws, err := runner.Run(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if folded, err := dc.RecordRemote(u, rec, draws); err != nil || !folded {
		t.Fatalf("first fold: folded=%v err=%v, want true, nil", folded, err)
	}
	for i := 0; i < 3; i++ {
		if folded, err := dc.RecordRemote(u, rec, draws); err != nil || folded {
			t.Fatalf("duplicate fold %d: folded=%v err=%v, want false, nil", i, folded, err)
		}
	}
	if _, err := dc.RecordRemote(UnitID{Inst: 5, Prog: 0}, rec, draws); err == nil {
		t.Error("out-of-bounds instance: want error, got nil")
	}
	if _, err := dc.RecordRemote(UnitID{Inst: 0, Prog: 99}, rec, draws); err == nil {
		t.Error("out-of-bounds program: want error, got nil")
	}
}

// TestDistRejectsCorpusStrategy: corpus epochs are cross-unit barriers and
// cannot be distributed; both distributed entry points must refuse them —
// before touching the checkpoint directory, where opening a fresh log would
// replace the one already there.
func TestDistRejectsCorpusStrategy(t *testing.T) {
	cfg := engineConfig(1, 1, 4)
	cfg.CheckpointDir = t.TempDir()
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(cfg.CheckpointDir, checkpoint.FileName)
	want, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = StrategyCorpus
	if _, err := NewDistCampaign(cfg); !errors.Is(err, ErrDistCorpus) {
		t.Errorf("NewDistCampaign: err = %v, want ErrDistCorpus", err)
	}
	if _, err := NewUnitRunner(cfg); !errors.Is(err, ErrDistCorpus) {
		t.Errorf("NewUnitRunner: err = %v, want ErrDistCorpus", err)
	}
	if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a refused campaign changed the checkpoint log already in its directory (err %v)", err)
	}
}

// TestDistCampaignCheckpointRoundTrip kills a distributed campaign after a
// partial fold, rebuilds it from its checkpoint, and finishes it — the
// coordinator-crash primitive. The resumed campaign must not re-run folded
// units and must reach the single-process fingerprint.
func TestDistCampaignCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(7, 2, 8)
	want, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = dir

	dc, err := NewDistCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pending := dc.Pending()
	if len(pending) != 16 {
		t.Fatalf("fresh campaign: %d pending units, want 16", len(pending))
	}
	foldRemote(t, dc, cfg, pending[:5])
	if err := dc.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(dir); err != nil {
		t.Fatalf("checkpoint unreadable after partial save: %v", err)
	}

	// "Restart": a fresh DistCampaign resumed from the checkpoint.
	cfg.Resume = true
	dc2, err := NewDistCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rest := dc2.Pending()
	if len(rest) != len(pending)-5 {
		t.Fatalf("resumed campaign: %d pending units, want %d", len(rest), len(pending)-5)
	}
	for _, u := range pending[:5] {
		if !dc2.Done(u) {
			t.Fatalf("unit (%d,%d) folded before the crash but pending after resume", u.Inst, u.Prog)
		}
	}
	foldRemote(t, dc2, cfg, rest)
	if err := dc2.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	res := dc2.Result()
	wantFP := fuzzer.ViolationFingerprint(want.Violations)
	if fp := fuzzer.ViolationFingerprint(res.Violations); fp != wantFP {
		t.Errorf("resumed fingerprint %#x, want single-process %#x", fp, wantFP)
	}
}

// TestLogInterchange: the coordinator and the single-process engine write
// the same log, so each resumes the other's — `amulet -resume` finishes a
// lost coordinator's campaign and `amulet-coordinator -resume` an
// interrupted single-process one — including a log with no commit record
// and one whose writer died inside a record.
func TestLogInterchange(t *testing.T) {
	want, err := RunCampaign(context.Background(), engineConfig(7, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fuzzer.ViolationFingerprint(want.Violations)

	t.Run("coordinator's log, engine resumes", func(t *testing.T) {
		cfg := engineConfig(7, 2, 8)
		cfg.CheckpointDir = t.TempDir()
		dc, err := NewDistCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Six units folded, never synced or committed: a SIGKILLed coordinator.
		foldRemote(t, dc, cfg, dc.Pending()[:6])
		dc.Close()
		cfg.Resume = true
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fp := fuzzer.ViolationFingerprint(res.Violations); fp != wantFP {
			t.Errorf("fingerprint %#x, want %#x", fp, wantFP)
		}
		if res.Totals().Programs != 16 {
			t.Errorf("%d programs in the result, want 16", res.Totals().Programs)
		}
	})

	t.Run("engine's log, coordinator resumes", func(t *testing.T) {
		cfg := engineConfig(7, 2, 8)
		cfg.CheckpointDir = t.TempDir()
		cfg.Workers = 2
		inj := faultinject.New()
		inj.Arm(faultinject.KindCrashInAppend, 8, 30) // dies inside the 7th unit record
		cfg.Inject = inj
		if _, err := RunCampaign(context.Background(), cfg); !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("killed run: err = %v", err)
		}
		cfg.Inject, cfg.Resume = nil, true
		dc, err := NewDistCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer dc.Close()
		rest := dc.Pending()
		if len(rest) != 10 {
			t.Fatalf("%d units pending after resume, want 10", len(rest))
		}
		foldRemote(t, dc, cfg, rest)
		if err := dc.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if fp := fuzzer.ViolationFingerprint(dc.Result().Violations); fp != wantFP {
			t.Errorf("fingerprint %#x, want %#x", fp, wantFP)
		}
		if st, err := checkpoint.Load(cfg.CheckpointDir); err != nil || len(st.Units) != 16 || st.EpochsDone != 1 {
			t.Errorf("finished log: %v", err)
		}
	})
}

// TestRemainingAndCursorMatchFullScan pins the O(1) bookkeeping against the
// full scan it replaced. Synthetic results fold in random order — through
// RecordRemote, through settle as local runs, through both at once, twice,
// and as interrupted local runs that must leave the unit open — with and
// without StopOnFirstViolation (cuts move down past done and not-done
// units, dead units beyond a cut fold late), units are drawn from the
// cursor in between, the cursor is now and then windowed to a program range
// as a corpus epoch is, and the campaign is now and then resumed from its
// log. After every step Complete, Remaining and Finished must say what
// Pending says, and the cursor's next unit must be the first pending unit
// of its window not handed out yet.
func TestRemainingAndCursorMatchFullScan(t *testing.T) {
	const instances, programs = 3, 12
	sb := isa.Sandbox{Pages: 1}
	in, _ := isa.NewInput(sb).AppendBinary(nil)
	result := func(u UnitID, violating bool) checkpoint.ResultRec {
		rec := checkpoint.ResultRec{TestCases: 1, Programs: 1}
		if violating {
			rec.Violations = []checkpoint.ViolationRec{{
				Program: &isa.Program{}, Sandbox: sb, InputA: in, InputB: in, ProgramIndex: u.Prog,
			}}
		}
		return rec
	}
	for _, stopFirst := range []bool{false, true} {
		for seed := int64(0); seed < 25; seed++ {
			t.Run(fmt.Sprintf("stop-first=%v/seed=%d", stopFirst, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := engineConfig(1, instances, programs)
				cfg.Campaign.Base.StopOnFirstViolation = stopFirst
				cfg.CheckpointDir = t.TempDir()
				dc, err := NewDistCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { dc.Close() }()
				violating := map[UnitID]bool{}
				for i := 0; i < instances; i++ {
					for p := 0; p < programs; p++ {
						violating[UnitID{i, p}] = rng.Intn(5) == 0
					}
				}
				handed := map[UnitID]bool{}
				lo, hi := 0, programs // the cursor's window

				check := func(step string) {
					t.Helper()
					pending := dc.Pending()
					if got := dc.Remaining(); got != len(pending) {
						t.Fatalf("%s: Remaining() = %d, the full scan finds %d", step, got, len(pending))
					}
					if got := dc.Complete(); got != (len(pending) == 0) {
						t.Fatalf("%s: Complete() = %v with %d units pending", step, got, len(pending))
					}
					select {
					case <-dc.Finished():
						if len(pending) != 0 {
							t.Fatalf("%s: Finished closed with %d units pending", step, len(pending))
						}
					default:
						if len(pending) == 0 {
							t.Fatalf("%s: campaign complete, Finished still open", step)
						}
					}
				}
				next := func(step string) {
					t.Helper()
					var want *UnitID
					for _, u := range dc.Pending() {
						if !handed[u] && u.Prog >= lo && u.Prog < hi {
							want = &u
							break
						}
					}
					got, ok := dc.Next()
					switch {
					case ok && (got.Prog < lo || got.Prog >= hi):
						t.Fatalf("%s: cursor hands out %v outside its window [%d, %d)", step, got, lo, hi)
					case ok && got.Prog > dc.c.stopAt[got.Inst]:
						t.Fatalf("%s: cursor hands out %v past its instance's cut %d", step, got, dc.c.stopAt[got.Inst])
					case want == nil && ok:
						t.Fatalf("%s: cursor hands out %v, the full scan has nothing left to hand out", step, got)
					case want != nil && (!ok || got != *want):
						t.Fatalf("%s: cursor hands out %v (ok=%v), the full scan's next is %v", step, got, ok, *want)
					}
					if ok {
						handed[got] = true
					}
				}

				check("fresh")
				for step := 0; step < 200 && !dc.Complete(); step++ {
					u := UnitID{rng.Intn(instances), rng.Intn(programs)}
					local := unit{inst: u.Inst, prog: u.Prog}
					rec := result(u, violating[u])
					label := fmt.Sprintf("step %d, unit %v", step, u)
					switch op := rng.Intn(42); {
					case op < 16:
						was := dc.Done(u)
						folded, err := dc.RecordRemote(u, rec, 1)
						if err != nil || folded == was {
							t.Fatalf("%s: RecordRemote folded=%v err=%v, unit done before: %v", label, folded, err, was)
						}
					case op < 24:
						was := dc.Done(u)
						if folded := dc.settle(local, unitOutcome{res: rec.Decode(), draws: 1, done: true}, nil); folded == was {
							t.Fatalf("%s: local settle folded=%v, unit done before: %v", label, folded, was)
						}
					case op < 28:
						// Interrupted local run: the partial result is kept, the unit stays open.
						was := dc.Done(u)
						dc.settle(local, unitOutcome{res: &fuzzer.Result{}, err: context.Canceled}, nil)
						if dc.Done(u) != was {
							t.Fatalf("%s: an interrupted local run marked the unit done", label)
						}
					case op < 32:
						// A late remote result races the local fallback: one fold.
						var wg sync.WaitGroup
						wg.Add(2)
						go func() {
							defer wg.Done()
							dc.settle(local, unitOutcome{res: rec.Decode(), draws: 1, done: true}, nil)
						}()
						go func() {
							defer wg.Done()
							if _, err := dc.RecordRemote(u, rec, 1); err != nil {
								t.Error(err)
							}
						}()
						wg.Wait()
					case op < 39:
						for n := rng.Intn(4); n >= 0; n-- {
							next(label)
						}
					case op < 41:
						// A new epoch: the cursor restarts at the top of its window.
						lo = rng.Intn(programs)
						hi = lo + 1 + rng.Intn(programs-lo)
						dc.setWindow(lo, hi)
						if dc.curInst != 0 || dc.curProg != lo {
							t.Fatalf("%s: window [%d, %d) restarts the cursor at (%d, %d), want (0, %d)",
								label, lo, hi, dc.curInst, dc.curProg, lo)
						}
						handed = map[UnitID]bool{}
						for n := rng.Intn(4); n >= 0; n-- {
							next(label)
						}
					default: // rare: every resume costs an fsync
						if err := dc.SaveCheckpoint(); err != nil {
							t.Fatal(err)
						}
						dc.Close()
						cfg.Resume = true
						if dc, err = NewDistCampaign(cfg); err != nil {
							t.Fatalf("%s: resume: %v", label, err)
						}
						// A restarted coordinator schedules the whole grid from the top.
						handed, lo, hi = map[UnitID]bool{}, 0, programs
					}
					check(label)
				}
				// Drain over the whole grid: what was handed out and never
				// folded is its taker's to run again; everything else still
				// comes from the cursor.
				if lo != 0 || hi != programs {
					dc.setWindow(0, programs)
					handed, lo, hi = map[UnitID]bool{}, 0, programs
				}
				for !dc.Complete() {
					u := dc.Pending()[0]
					if !handed[u] {
						next(fmt.Sprintf("drain %v", u))
					}
					if _, err := dc.RecordRemote(u, result(u, violating[u]), 1); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("drain %v", u))
				}
				next("complete")
			})
		}
	}
}
