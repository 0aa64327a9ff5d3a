package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
)

// fingerprints identifies a campaign outcome by its violation set digest
// (trace-free, so it works for restored violations too).
func fingerprint(res *fuzzer.CampaignResult) uint64 {
	return fuzzer.ViolationFingerprint(res.Violations)
}

// TestQuarantineKeepsCampaignGoing is the fault-isolation contract: a unit
// that panics mid-pipeline is quarantined — counted, bundled for replay —
// and every other unit of the campaign still runs to completion.
func TestQuarantineKeepsCampaignGoing(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindPanicInUnit, 0, 3)

	cfg := engineConfig(1, 2, 12)
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatalf("quarantine escalated to a campaign error: %v", err)
	}
	tot := res.Totals()
	if tot.Metrics.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", tot.Metrics.Quarantined)
	}
	if tot.Programs != 23 {
		t.Errorf("completed programs = %d, want 23 (24 units minus the quarantined one)", tot.Programs)
	}

	// The quarantined unit's violations are gone; everything else must be
	// exactly what an uninjected campaign produces.
	clean, err := RunCampaign(context.Background(), engineConfig(1, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range campaignKeys(t, clean) {
		if !strings.HasPrefix(k, "i0 p3 ") {
			want = append(want, k)
		}
	}
	got := campaignKeys(t, res)
	if len(got) != len(want) {
		t.Fatalf("violation sets differ: quarantined run found %d, clean-minus-unit %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("violation %d differs:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}

	// The repro bundle landed in the quarantine subdirectory.
	b, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 0, 3, checkpoint.BundlePanic))
	if err != nil {
		t.Fatalf("no repro bundle for the quarantined unit: %v", err)
	}
	if b.Inst != 0 || b.Prog != 3 || !strings.Contains(b.Value, "injected panic in unit (0,3)") {
		t.Errorf("bundle does not describe the fault: %+v", b)
	}
	if b.Stack == "" {
		t.Error("bundle carries no stack trace")
	}

	// A panic may leave the executor and the workspace mid-update: the
	// worker continues on fresh ones.
	inj = faultinject.New()
	inj.Arm(faultinject.KindPanicInUnit, 0, 3)
	cfg.CheckpointDir = ""
	cfg.Inject = inj
	assertPoisonReplacesSlot(t, cfg, 0, 3)
}

// TestQuarantineBundleReplay closes the repro loop: the bundle written by a
// quarantined unit, re-run standalone with the original fault re-armed,
// reproduces the identical panic; without the fault, the same unit runs
// clean — the failure is exactly as deterministic as the unit seed.
func TestQuarantineBundleReplay(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindPanicInUnit, 1, 5)
	cfg := engineConfig(3, 2, 8)
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 1, 5, checkpoint.BundlePanic))
	if err != nil {
		t.Fatal(err)
	}

	// Replay with the fault re-armed: the panic must reproduce, surfaced as
	// the QuarantineError the engine degraded it to.
	reInj := faultinject.New()
	reInj.Arm(faultinject.KindPanicInUnit, b.Inst, b.Prog)
	res, err := ReplayUnit(context.Background(), engineConfig(3, 2, 8), b, reInj)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("replay err = %v, want a *QuarantineError", err)
	}
	if qe.Value != b.Value {
		t.Errorf("replayed panic %q, original %q", qe.Value, b.Value)
	}
	if res == nil || res.Metrics.Quarantined != 1 {
		t.Errorf("replay result does not count the quarantine: %+v", res)
	}

	// Replay without the fault: the unit itself is healthy and completes.
	res, err = ReplayUnit(context.Background(), engineConfig(3, 2, 8), b, nil)
	if err != nil {
		t.Fatalf("clean replay failed: %v", err)
	}
	if res.TestCases == 0 {
		t.Error("clean replay ran no test cases")
	}

	// A bundle from a different configuration is refused.
	other := engineConfig(99, 2, 8)
	if _, err := ReplayUnit(context.Background(), other, b, nil); err == nil ||
		!strings.Contains(err.Error(), "different campaign configuration") {
		t.Errorf("replay against a different config: err = %v, want fingerprint refusal", err)
	}
}

// TestResumeMidCampaign is the checkpoint/resume contract for the random
// strategy: kill a campaign partway (deterministically, via the injector's
// unit-start countdown), resume it, and the final violation set is
// bit-identical to an uninterrupted run's.
func TestResumeMidCampaign(t *testing.T) {
	base := func() Config { return engineConfig(1, 2, 12) }
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New()
	inj.ArmCancel(6, cancel)
	cfg := base()
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	st, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if len(st.Units) == 0 {
		t.Fatal("checkpoint recorded no completed units")
	}
	if len(st.Units) == 24 {
		t.Fatal("campaign finished before the injected kill; the resume path went unexercised")
	}

	cfg = base()
	cfg.Workers = 3 // resume at a different worker count, on purpose
	cfg.CheckpointDir = dir
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("resumed fingerprint %#x, uninterrupted %#x", got, want)
	}
	if got, want := len(res.Violations), len(clean.Violations); got != want {
		t.Errorf("resumed violations = %d, uninterrupted %d", got, want)
	}
}

// TestResumeCorpusStrategy extends the resume contract across epoch state:
// coverage map, admitted corpus, and per-epoch program retention must all
// survive a mid-campaign kill, landing on the uninterrupted outcome.
func TestResumeCorpusStrategy(t *testing.T) {
	base := func() Config {
		cfg := engineConfig(1, 2, 12)
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = 3
		return cfg
	}
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New()
	inj.ArmCancel(10, cancel) // lands mid-epoch-2 at these sizes
	cfg := base()
	cfg.Workers = 4
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	cfg = base()
	cfg.CheckpointDir = dir
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("resumed corpus fingerprint %#x, uninterrupted %#x", got, want)
	}
	cGot, cWant := res.Totals().Coverage, clean.Totals().Coverage
	if cGot == nil || cWant == nil || cGot.Count() != cWant.Count() {
		t.Errorf("resumed coverage differs from uninterrupted")
	}
}

// TestResumeCompletedCheckpoint: resuming a finished campaign re-runs
// nothing and reproduces the recorded outcome from the checkpoint alone.
func TestResumeCompletedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(1, 1, 8)
	cfg.CheckpointDir = dir
	clean, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res) != fingerprint(clean) || res.TestCases != clean.TestCases {
		t.Errorf("restored outcome differs: %d cases fp %#x, want %d cases fp %#x",
			res.TestCases, fingerprint(res), clean.TestCases, fingerprint(clean))
	}
}

// TestResumeRejectsMismatchAndCorruption: a checkpoint from a different
// configuration, or one whose bytes rotted, must refuse to resume — loudly,
// never by silently splicing foreign state into the campaign.
func TestResumeRejectsMismatchAndCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := engineConfig(1, 1, 6)
	cfg.CheckpointDir = dir
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	other := engineConfig(2, 1, 6) // different seed, same shape
	other.CheckpointDir = dir
	other.Resume = true
	if _, err := RunCampaign(context.Background(), other); err == nil ||
		!strings.Contains(err.Error(), "different campaign configuration") {
		t.Errorf("config-mismatch resume: err = %v, want fingerprint refusal", err)
	}

	// Flip one byte of a middle record on disk: resume must surface
	// ErrCorrupt. (The same flip in the last record is a torn tail.)
	path := filepath.Join(dir, checkpoint.FileName)
	raw, recs := readLog(t, dir)
	raw[recs[2].end-2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if _, err := RunCampaign(context.Background(), cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("corrupt resume: err = %v, want checkpoint.ErrCorrupt", err)
	}

	// Resume without a checkpoint directory is a configuration error.
	bad := engineConfig(1, 1, 6)
	bad.Resume = true
	if _, err := RunCampaign(context.Background(), bad); err == nil {
		t.Error("Resume without CheckpointDir was accepted")
	}

	// Resume with no checkpoint on disk is a fresh start, not an error.
	fresh := engineConfig(1, 1, 6)
	fresh.CheckpointDir = t.TempDir()
	fresh.Resume = true
	if _, err := RunCampaign(context.Background(), fresh); err != nil {
		t.Errorf("resume with no checkpoint yet: %v", err)
	}
}

// logRecord is one record of a checkpoint log, as the tests below see it.
type logRecord struct {
	kind       byte
	inst, prog int // unit records only
	end        int // offset at which the record ends
}

// readLog reads dir's checkpoint file and walks its records. The records
// must tile the file: nothing torn, no garbage between or behind them.
func readLog(t *testing.T, dir string) ([]byte, []logRecord) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []logRecord
	end, err := checkpoint.Walk(raw, func(kind byte, payload []byte, end int) error {
		r := logRecord{kind: kind, end: end}
		if kind == checkpoint.RecUnit {
			var err error
			if r.inst, r.prog, _, _, err = checkpoint.SplitUnit(payload); err != nil {
				return err
			}
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != len(raw) {
		t.Fatalf("log records end at %d, the file at %d", end, len(raw))
	}
	return raw, recs
}

// TestLogWrittenOnce pins what the log is for. A 4-epoch corpus campaign
// writes every unit's result in exactly one record; the bytes handed to the
// file add up to the file's final size (nothing is written twice); an
// epoch's stretch of the log holds that epoch's units and one commit record,
// nothing else. And since every commit record ends a self-contained prefix,
// the log cut after any of them resumes to the uninterrupted outcome.
func TestLogWrittenOnce(t *testing.T) {
	const instances, programs, epochs = 2, 12, 4
	base := func() Config {
		cfg := engineConfig(1, instances, programs)
		cfg.Strategy = StrategyCorpus
		cfg.Epochs = epochs
		cfg.Workers = 4
		return cfg
	}
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	inj := faultinject.New() // arms nothing; counts the appends
	cfg := base()
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	raw, recs := readLog(t, dir)
	appends, written := inj.Appended()
	if written != int64(len(raw)) {
		t.Errorf("%d bytes were written to a log of %d bytes", written, len(raw))
	}
	if want := 1 + instances*programs + epochs; appends != want || len(recs) != want {
		t.Errorf("%d appends, %d records; want %d (a header, one record a unit, one commit an epoch)", appends, len(recs), want)
	}
	if recs[0].kind != checkpoint.RecHeader {
		t.Fatalf("first record is %q", recs[0].kind)
	}
	var commits []int // index into recs of each commit record
	seen := map[[2]int]bool{}
	k := 1
	for e := 0; e < epochs; e++ {
		lo, hi := epochBounds(programs, epochs, e)
		for n := 0; n < instances*(hi-lo); n++ {
			r := recs[k]
			k++
			if r.kind != checkpoint.RecUnit || r.prog < lo || r.prog >= hi {
				t.Fatalf("epoch %d's stretch holds a %q record of unit (%d,%d)", e, r.kind, r.inst, r.prog)
			}
			if seen[[2]int{r.inst, r.prog}] {
				t.Fatalf("unit (%d,%d) is in the log twice", r.inst, r.prog)
			}
			seen[[2]int{r.inst, r.prog}] = true
		}
		if recs[k].kind != checkpoint.RecCommit {
			t.Fatalf("epoch %d's units are followed by a %q record, want its commit", e, recs[k].kind)
		}
		commits = append(commits, k)
		k++
	}

	for e, ci := range commits[:epochs-1] {
		cut := t.TempDir()
		if err := os.WriteFile(filepath.Join(cut, checkpoint.FileName), raw[:recs[ci].end], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := base()
		cfg.Workers = 2
		cfg.CheckpointDir = cut
		cfg.Resume = true
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("resume after commit %d: %v", e+1, err)
		}
		if got, want := fingerprint(res), fingerprint(clean); got != want {
			t.Errorf("resume after commit %d: fingerprint %#x, uninterrupted %#x", e+1, got, want)
		}
		if got, want := res.Totals().Coverage.Count(), clean.Totals().Coverage.Count(); got != want {
			t.Errorf("resume after commit %d: coverage %d, uninterrupted %d", e+1, got, want)
		}
		// The resumed run appended behind the cut; it rewrote nothing.
		grown, _ := readLog(t, cut)
		if !bytes.Equal(grown[:recs[ci].end], raw[:recs[ci].end]) {
			t.Errorf("resume after commit %d rewrote the log it resumed from", e+1)
		}
	}
}

// TestResumeAfterKill: a process killed outright (SIGKILL, OOM) drains
// nothing and writes no final records — the log just stops, possibly inside
// a record. A random-strategy campaign keeps every whole unit record; a
// corpus-strategy one keeps what its last commit vouches for. Either way
// resume lands on the uninterrupted outcome.
func TestResumeAfterKill(t *testing.T) {
	for _, strategy := range []string{StrategyRandom, StrategyCorpus} {
		base := func() Config {
			cfg := engineConfig(1, 2, 12)
			if strategy == StrategyCorpus {
				cfg.Strategy, cfg.Epochs = StrategyCorpus, 3
			}
			return cfg
		}
		clean, err := RunCampaign(context.Background(), base())
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		inj := faultinject.New()
		// Append 13 is a unit record in the middle of the campaign (of epoch
		// 1 of 3 under the corpus strategy, whose epoch 0 is 8 units and a
		// commit); 40 bytes of it reach the file.
		inj.Arm(faultinject.KindCrashInAppend, 13, 40)
		cfg := base()
		cfg.Workers = 2
		cfg.CheckpointDir = dir
		cfg.Inject = inj
		if _, err := RunCampaign(context.Background(), cfg); !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("%s: killed run: err = %v, want ErrInjectedCrash", strategy, err)
		}
		st, err := checkpoint.Load(dir)
		if err != nil {
			t.Fatalf("%s: log unreadable after the kill: %v", strategy, err)
		}
		wantUnits := 11 // every whole unit record
		if strategy == StrategyCorpus {
			wantUnits = 8 // epoch 0; epoch 1's units have no programs in the log
		}
		if len(st.Units) != wantUnits {
			t.Errorf("%s: %d units restored, want %d", strategy, len(st.Units), wantUnits)
		}

		cfg = base()
		cfg.CheckpointDir = dir
		cfg.Resume = true
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: resume: %v", strategy, err)
		}
		if got, want := fingerprint(res), fingerprint(clean); got != want {
			t.Errorf("%s: resumed fingerprint %#x, uninterrupted %#x", strategy, got, want)
		}
		if st, err = checkpoint.Load(dir); err != nil || len(st.Units) != 24 || st.EpochsDone != st.Epochs {
			t.Errorf("%s: finished log: %v", strategy, err)
		}
	}
}

// TestCheckpointWriteFailure is the disk-full / unwritable-directory path.
// A write the filesystem refuses must not stop the campaign: it finishes
// with its full result and the failure joined into the returned error
// exactly once; the file loads to what was fully written, with no half
// record in front of the appends that came after; and resume makes it
// whole again.
func TestCheckpointWriteFailure(t *testing.T) {
	base := func() Config { return engineConfig(1, 2, 12) }
	clean, err := RunCampaign(context.Background(), base())
	if err != nil {
		t.Fatal(err)
	}
	once := func(t *testing.T, err error, what string) {
		t.Helper()
		if err == nil || strings.Count(err.Error(), what) != 1 {
			t.Errorf("err = %v, want %q in it exactly once", err, what)
		}
	}
	resume := func(t *testing.T, dir string) {
		t.Helper()
		cfg := base()
		cfg.CheckpointDir = dir
		cfg.Resume = true
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(res) != fingerprint(clean) {
			t.Errorf("resumed fingerprint %#x, uninterrupted %#x", fingerprint(res), fingerprint(clean))
		}
		if st, err := checkpoint.Load(dir); err != nil || len(st.Units) != 24 || st.EpochsDone != 1 {
			t.Errorf("log after resume is not whole: %v", err)
		}
	}

	for _, tc := range []struct {
		name      string
		append    int // 1 header, 2..25 units, 26 the commit
		keep      int
		wantUnits int
	}{
		{"short write of a unit record", 6, 17, 23},
		{"refused write of a unit record", 25, 0, 23},
		{"short write of the commit record", 26, 5, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New()
			inj.Arm(faultinject.KindFailAppend, tc.append, tc.keep)
			cfg := base()
			cfg.Workers = 2
			cfg.CheckpointDir = dir
			cfg.Inject = inj
			res, err := RunCampaign(context.Background(), cfg)
			once(t, err, faultinject.ErrInjectedWriteFailure.Error())
			if res == nil || fingerprint(res) != fingerprint(clean) || res.TestCases != clean.TestCases {
				t.Fatalf("the failed write changed the campaign's result")
			}
			// The log holds whole records only (readLog insists they tile
			// the file) and no commit vouching for a unit that is not there.
			_, recs := readLog(t, dir)
			units := 0
			for _, r := range recs {
				if r.kind == checkpoint.RecUnit {
					units++
				}
			}
			st, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if units != tc.wantUnits || len(st.Units) != tc.wantUnits || st.EpochsDone != 0 {
				t.Errorf("log holds %d unit records, loads %d units, EpochsDone %d; want %d, %d, 0",
					units, len(st.Units), st.EpochsDone, tc.wantUnits, tc.wantUnits)
			}
			resume(t, dir)
		})
	}

	t.Run("unwritable directory", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "not-a-directory")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := base()
		cfg.CheckpointDir = filepath.Join(file, "ckpt")
		res, err := RunCampaign(context.Background(), cfg)
		once(t, err, "not-a-directory")
		if res == nil || fingerprint(res) != fingerprint(clean) {
			t.Fatalf("the unwritable directory changed the campaign's result")
		}
	})
}

// TestUnitWatchdog: a wedged unit is abandoned at the deadline, counted as
// a timeout, bundled, and the rest of the campaign completes on a fresh
// executor.
func TestUnitWatchdog(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New()
	inj.HangDuration = 5 * time.Second // far past the watchdog deadline
	inj.Arm(faultinject.KindHangInUnit, 0, 2)

	cfg := engineConfig(1, 1, 6)
	cfg.CheckpointDir = dir
	cfg.Inject = inj
	cfg.UnitTimeout = 100 * time.Millisecond
	start := time.Now()
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= inj.HangDuration {
		t.Errorf("campaign waited out the hang (%v); the watchdog never fired", elapsed)
	}
	tot := res.Totals()
	if tot.Metrics.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", tot.Metrics.TimedOut)
	}
	if tot.Programs != 5 {
		t.Errorf("completed programs = %d, want 5 of 6", tot.Programs)
	}
	if _, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, 0, 2, checkpoint.BundleTimeout)); err != nil {
		t.Errorf("no timeout bundle: %v", err)
	}

	// The abandoned goroutine still holds the executor and the workspace of
	// the unit it was running, and may wake up and write to both: the
	// worker must continue on fresh ones.
	inj = faultinject.New()
	inj.HangDuration = 5 * time.Second
	inj.Arm(faultinject.KindHangInUnit, 0, 2)
	cfg.CheckpointDir = ""
	cfg.Inject = inj
	assertPoisonReplacesSlot(t, cfg, 0, 2)
}

// assertPoisonReplacesSlot runs program prog of every instance of cfg's
// campaign — unit (inst, prog) armed to poison its worker — through the
// worker loop, and requires the worker's slot to come out of it with a new
// executor and a new workspace.
func assertPoisonReplacesSlot(t *testing.T, cfg Config, inst, prog int) {
	t.Helper()
	c, _, err := newCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDistCampaign(c, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := c.newSlot()
	exec, ws := s.exec, s.ws
	d.setWindow(prog, prog+1)
	if err := d.runWorker(context.Background(), s, generator.Random{}); err != nil {
		t.Fatal(err)
	}
	if m := d.Result().Totals().Metrics; m.Quarantined+m.TimedOut != 1 || !d.Done(UnitID{Inst: inst, Prog: prog}) {
		t.Fatalf("unit (%d,%d) did not poison its worker: %+v", inst, prog, m)
	}
	if s.exec == nil || s.exec == exec {
		t.Error("the poisoned executor was kept")
	}
	if s.ws == nil || s.ws == ws {
		t.Error("the workspace of the poisoned unit was kept")
	}
}
