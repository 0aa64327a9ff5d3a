package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// TestDistCampaignLocalEquivalence proves the two distributed execution
// paths — RunLocal (the coordinator's degradation path) and
// UnitRunner.Run + RecordRemote (the worker round-trip, including the
// serialize/deserialize hop) — both reproduce the single-process
// campaign's violation set bit for bit.
func TestDistCampaignLocalEquivalence(t *testing.T) {
	cfg := engineConfig(7, 2, 8)
	want, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fuzzer.ViolationFingerprint(want.Violations)

	t.Run("run-local", func(t *testing.T) {
		dc, err := NewDistCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dc.RunLocal(context.Background(), dc.Pending()); err != nil {
			t.Fatal(err)
		}
		if !dc.Complete() {
			t.Fatal("campaign not complete after RunLocal of all pending units")
		}
		res := dc.Result()
		if fp := fuzzer.ViolationFingerprint(res.Violations); fp != wantFP {
			t.Errorf("RunLocal fingerprint %#x, want single-process %#x", fp, wantFP)
		}
	})

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
// cannot be distributed; both distributed entry points must refuse them.
func TestDistRejectsCorpusStrategy(t *testing.T) {
	cfg := engineConfig(1, 1, 4)
	cfg.Strategy = StrategyCorpus
	if _, err := NewDistCampaign(cfg); !errors.Is(err, ErrDistCorpus) {
		t.Errorf("NewDistCampaign: err = %v, want ErrDistCorpus", err)
	}
	if _, err := NewUnitRunner(cfg); !errors.Is(err, ErrDistCorpus) {
		t.Errorf("NewUnitRunner: err = %v, want ErrDistCorpus", err)
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
	if err := dc.RunLocal(context.Background(), pending[:5]); err != nil {
		t.Fatal(err)
	}
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
	if err := dc2.RunLocal(context.Background(), rest); err != nil {
		t.Fatal(err)
	}
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
		if err := dc.RunLocal(context.Background(), dc.Pending()[:6]); err != nil {
			t.Fatal(err)
		}
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
		if err := dc.RunLocal(context.Background(), rest); err != nil {
			t.Fatal(err)
		}
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
