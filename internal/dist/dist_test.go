package dist_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// The golden campaign: the same budget, seed and fingerprints
// TestViolationSetDeterminism pins for single-process runs. Every
// distributed test below must land on these exact values — that is the
// tentpole claim: distribution (and every injected network failure) is
// invisible in the results.
const (
	goldenDefense    = "baseline"
	goldenViolations = 8
	goldenFP         = uint64(0xab934f6f38c453de)
)

func goldenConfig(t *testing.T) engine.Config {
	t.Helper()
	spec, err := experiments.DefenseByName(goldenDefense)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiments.Scale{Instances: 2, Programs: 40, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
	return engine.Config{Campaign: experiments.CampaignConfig(spec, sc), Strategy: engine.StrategyRandom}
}

func checkGolden(t *testing.T, label string, res *fuzzer.CampaignResult) {
	t.Helper()
	if len(res.Violations) != goldenViolations {
		t.Errorf("%s: %d violations, want %d", label, len(res.Violations), goldenViolations)
	}
	if fp := fuzzer.ViolationFingerprint(res.Violations); fp != goldenFP {
		t.Errorf("%s: violation fingerprint %#x, want golden %#x", label, fp, goldenFP)
	}
}

// testWorker runs a dist.Worker in-process. A panic from an injected unit
// fault is recovered here but treated as process death: the worker's
// context is cancelled so its heartbeat goroutine dies with it, exactly as
// a real SIGKILL would silence a real worker process.
type testWorker struct {
	name string
	err  error
	died bool
}

func startWorkers(t *testing.T, ctx context.Context, wg *sync.WaitGroup, base string, injs map[string]*faultinject.Injector, names ...string) []*testWorker {
	t.Helper()
	return startWorkersOn(t, ctx, wg, base, goldenConfig(t), injs, names...)
}

// startWorkersOn is startWorkers for campaign cfg.
func startWorkersOn(t *testing.T, ctx context.Context, wg *sync.WaitGroup, base string, cfg engine.Config, injs map[string]*faultinject.Injector, names ...string) []*testWorker {
	t.Helper()
	out := make([]*testWorker, len(names))
	for i, name := range names {
		cfg.Inject = injs[name]
		w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: base, Name: name, Campaign: cfg})
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{name: name}
		out[i] = tw
		wctx, cancel := context.WithCancel(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			defer func() {
				if r := recover(); r != nil {
					tw.died = true
					cancel() // silence the heartbeat: the "process" is dead
				}
			}()
			tw.err = w.Run(wctx)
		}()
	}
	return out
}

// startCoordinator builds and serves a coordinator for the golden campaign.
func startCoordinator(t *testing.T, cfg dist.CoordinatorConfig, addr string) (*dist.Coordinator, string) {
	t.Helper()
	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := co.Start(addr)
	if err != nil {
		t.Fatal(err)
	}
	return co, "http://" + a.String()
}

// TestDistributedMatchesSingleProcess is the baseline equivalence claim:
// a clean distributed run over several workers reproduces the golden
// single-process violation set bit for bit, with every robustness counter
// at zero (nothing went wrong, so nothing was absorbed).
func TestDistributedMatchesSingleProcess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	co, base := startCoordinator(t, dist.CoordinatorConfig{
		Campaign: goldenConfig(t),
		LeaseTTL: time.Second,
	}, "127.0.0.1:0")
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, nil, "w1", "w2", "w3")

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "distributed", res)
	if m := co.Robustness(); m.Evictions != 0 || m.Reassigned != 0 {
		t.Errorf("clean run: robustness counters non-zero: %+v", m)
	}

	cancel()
	wg.Wait()
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}
}

// TestDistributedStopOnFirst: a stop-on-first campaign over two workers,
// on grants sized in time, folds to the single-process violation set, and
// leaves no lease behind — a lease on a unit a cut closed ends with the
// fold that moved the cut.
func TestDistributedStopOnFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := goldenConfig(t)
	cfg.Campaign.Base.StopOnFirstViolation = true
	ref, err := engine.RunCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Violations) == 0 {
		t.Fatal("the single-process stop-on-first campaign finds no violation")
	}

	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Second}, "127.0.0.1:0")
	var wg sync.WaitGroup
	workers := startWorkersOn(t, ctx, &wg, base, cfg, nil, "w1", "w2")
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	want := fuzzer.ViolationFingerprint(ref.Violations)
	if fp := fuzzer.ViolationFingerprint(res.Violations); fp != want || len(res.Violations) != len(ref.Violations) {
		t.Errorf("distributed stop-on-first: %d violations, fingerprint %#x; single process %d, %#x",
			len(res.Violations), fp, len(ref.Violations), want)
	}
	if held := co.LeasesHeld(); len(held) != 0 {
		t.Errorf("leases outlived the campaign: %v", held)
	}
	cancel()
	wg.Wait()
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}
}

// TestDistributedFaultSweep drives the full failure menagerie at once —
// a worker killed by an injected simulator panic (lease expiry +
// reassignment), a worker on a deterministically lossy link (dropped
// responses, retries, duplicate submissions), a worker whose network is
// severed mid-campaign (silence for a TTL, eviction) — and proves the final
// results are still bit-identical to the golden single-process run, with
// the robustness counters recording what was absorbed. Grants are pinned
// at 4 units: the fault schedule counts RPCs, and grants sized in time
// would finish the 80-unit campaign in too few of them.
func TestDistributedFaultSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	co, base := startCoordinator(t, dist.CoordinatorConfig{
		Campaign: goldenConfig(t),
		LeaseTTL: 500 * time.Millisecond,
	}, "127.0.0.1:0")
	co.PinGrant(4)

	victim := faultinject.New()
	victim.Arm(faultinject.KindPanicInUnit, faultinject.Any, faultinject.Any)
	lossy := faultinject.New()
	lossy.ArmDropEvery(3)
	severed := faultinject.New()
	severed.ArmSever(6)

	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base,
		map[string]*faultinject.Injector{"victim": victim, "lossy": lossy, "severed": severed},
		"victim", "lossy", "severed", "steady")

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "fault sweep", res)

	m := co.Robustness()
	if m.Retries == 0 {
		t.Error("lossy link absorbed no retries")
	}
	if m.Evictions == 0 {
		t.Error("dead workers (panic, severed transport) were never evicted")
	}
	if m.Reassigned == 0 {
		t.Error("no units were reassigned despite worker deaths")
	}
	if m.DuplicatesDropped == 0 {
		t.Error("dropped submit responses produced no deduplicated resubmissions")
	}
	t.Logf("fault sweep absorbed: %d retries, %d evictions, %d reassigned, %d duplicates dropped", m.Retries, m.Evictions, m.Reassigned, m.DuplicatesDropped)

	// The counters must also surface through the result's metrics (what
	// the coordinator summary prints).
	if tot := res.Totals(); tot.Metrics.Evictions != m.Evictions || tot.Metrics.Reassigned != m.Reassigned {
		t.Errorf("robustness counters not folded into result metrics: result %+v, coordinator %+v", tot.Metrics, m)
	}

	cancel()
	wg.Wait()
	for _, w := range workers {
		switch w.name {
		case "victim":
			if !w.died {
				t.Error("victim worker survived its injected panic")
			}
		case "severed":
			if !errors.Is(w.err, dist.ErrSevered) {
				t.Errorf("severed worker: err = %v, want ErrSevered", w.err)
			}
		default:
			if w.err != nil && !errors.Is(w.err, context.Canceled) {
				t.Errorf("worker %s: %v", w.name, w.err)
			}
		}
	}
}

// TestCoordinatorCrashRestart kills the coordinator mid-campaign and
// restarts it from its checkpoint on the same address, at worker counts 1
// and 4: the workers ride out the outage on retry/backoff (rejoining under
// fresh identities once the restarted coordinator rejects their old ones),
// and the completed campaign still hits the golden fingerprint. This is
// TestCrashResumeDeterminism's contract extended across the process
// boundary: a lost coordinator is a resumable event, not a lost campaign.
func TestCoordinatorCrashRestart(t *testing.T) {
	for _, nWorkers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", nWorkers), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			cfg := goldenConfig(t)
			cfg.CheckpointDir = dir
			ccfg := dist.CoordinatorConfig{
				Campaign: cfg,
				LeaseTTL: 500 * time.Millisecond,
			}
			co1, base := startCoordinator(t, ccfg, "127.0.0.1:0")
			co1.SetCheckpointEvery(4)
			addr := co1.Addr().String()

			var wg sync.WaitGroup
			names := make([]string, nWorkers)
			for i := range names {
				names[i] = fmt.Sprintf("w%d", i)
			}
			workers := startWorkers(t, ctx, &wg, base, nil, names...)

			co1Ctx, kill := context.WithCancel(ctx)
			resCh := make(chan error, 1)
			go func() {
				_, err := co1.Run(co1Ctx)
				resCh <- err
			}()

			// Wait for real progress to be checkpointed, then "crash".
			deadline := time.Now().Add(30 * time.Second)
			for {
				if st, err := checkpoint.Load(dir); err == nil && len(st.Units) >= 8 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint progress within 30s")
				}
				time.Sleep(20 * time.Millisecond)
			}
			kill()
			if err := <-resCh; !errors.Is(err, dist.ErrInterrupted) {
				t.Fatalf("killed coordinator: err = %v, want ErrInterrupted", err)
			}
			st, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatalf("checkpoint after crash: %v", err)
			}
			if len(st.Units) == 0 {
				t.Fatal("crash checkpoint recorded no units")
			}

			// Restart on the same address, resuming from the checkpoint.
			// The port lingers briefly after the old listener closes.
			rcfg := ccfg
			rcfg.Campaign.Resume = true
			co2, err := dist.NewCoordinator(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			co2.SetCheckpointEvery(4)
			var bound net.Addr
			for i := 0; i < 100; i++ {
				if bound, err = co2.Start(addr); err == nil {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			_ = bound

			res, err := co2.Run(ctx)
			if err != nil {
				t.Fatalf("restarted coordinator: %v", err)
			}
			checkGolden(t, "crash-restarted", res)

			cancel()
			wg.Wait()
			for _, w := range workers {
				if w.err != nil && !errors.Is(w.err, context.Canceled) {
					t.Errorf("worker %s: %v", w.name, w.err)
				}
			}
		})
	}
}

// TestLocalFallback: a coordinator runs no unit itself. With no fleet it
// folds nothing, long past the 2×TTL after which it used to finish the
// campaign alone, and returns resumable when its context ends; the fallback
// is the single-process engine resuming its log, which reaches the golden
// fingerprint.
func TestLocalFallback(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig(t)
	cfg.CheckpointDir = dir
	const ttl = 100 * time.Millisecond
	co, _ := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: ttl}, "127.0.0.1:0")
	ctx, cancel := context.WithTimeout(context.Background(), 5*ttl)
	defer cancel()
	res, err := co.Run(ctx)
	if !errors.Is(err, dist.ErrInterrupted) {
		t.Fatalf("fleetless coordinator: err = %v, want ErrInterrupted", err)
	}
	if n := res.Totals().Programs; n != 0 {
		t.Errorf("a coordinator with no worker folded %d units", n)
	}
	st, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("fleetless coordinator's log: %v", err)
	}
	if len(st.Units) != 0 {
		t.Errorf("fleetless coordinator's log holds %d unit records", len(st.Units))
	}

	cfg.Resume = true
	res, err = engine.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resumed under the engine", res)
	if n, want := res.Totals().Programs, cfg.Campaign.Instances*cfg.Campaign.Base.Programs; n != want {
		t.Errorf("resumed campaign ran %d programs, want %d", n, want)
	}
}

// TestLocalFallbackYieldsToLateWorker: a campaign whose fleet never showed
// up stays open, and a worker that joins more than 2×TTL later finishes it
// alone — every unit, with the single-process fingerprint.
func TestLocalFallbackYieldsToLateWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := goldenConfig(t)
	const ttl = 100 * time.Millisecond
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: ttl}, "127.0.0.1:0")
	type outcome struct {
		res *fuzzer.CampaignResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.Run(ctx)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		t.Fatalf("the coordinator returned with no worker: %v", out.err)
	case <-time.After(3 * ttl):
	}

	w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: base, Name: "late", Campaign: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("late worker: %v", err)
		}
	}()
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	checkGolden(t, "late worker", out.res)
	if n, want := w.UnitsRun(), cfg.Campaign.Instances*cfg.Campaign.Base.Programs; n != want {
		t.Errorf("the late worker ran %d units, want all %d", n, want)
	}
}

// TestPoisonousUnitQuarantined: a unit that kills every worker that runs it
// is quarantined unrun once it has lost four of them (the reassignment cap,
// 3, plus one) — folded as the engine's guard folds a panicking unit in a
// single-process run, with a "lost" repro bundle — and no other unit is,
// though the first workers it killed held whole grants besides it. So the
// violation set is the single-process campaign's with that unit quarantined.
func TestPoisonousUnitQuarantined(t *testing.T) {
	const inst, prog = 0, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ref := goldenConfig(t)
	ref.Inject = faultinject.New()
	ref.Inject.Arm(faultinject.KindPanicInUnit, inst, prog)
	want, err := engine.RunCampaign(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := goldenConfig(t)
	cfg.CheckpointDir = dir
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: 300 * time.Millisecond}, "127.0.0.1:0")
	names := []string{"w1", "w2", "w3", "w4", "w5", "w6"}
	injs := map[string]*faultinject.Injector{}
	for _, name := range names {
		injs[name] = faultinject.New()
		injs[name].Arm(faultinject.KindPanicInUnit, inst, prog)
	}
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, injs, names...)

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	tot, wantTot := res.Totals(), want.Totals()
	if tot.Metrics.Quarantined != 1 || tot.Programs != wantTot.Programs {
		t.Errorf("%d units quarantined, %d programs folded; want 1 and %d", tot.Metrics.Quarantined, tot.Programs, wantTot.Programs)
	}
	if got, wantFP := fuzzer.ViolationFingerprint(res.Violations), fuzzer.ViolationFingerprint(want.Violations); got != wantFP ||
		len(res.Violations) != len(want.Violations) {
		t.Errorf("%d violations, fingerprint %#x; single-process with the unit quarantined: %d, %#x",
			len(res.Violations), got, len(want.Violations), wantFP)
	}

	b, err := checkpoint.LoadBundle(checkpoint.BundlePath(dir, inst, prog, checkpoint.BundleLost))
	if err != nil {
		t.Fatalf("no repro bundle for the lost unit: %v", err)
	}
	if b.Inst != inst || b.Prog != prog || b.Value != "lost 4 workers" {
		t.Errorf("bundle does not describe the loss: %+v", b)
	}
	// It replays like any other bundle: the unit panics again.
	reInj := faultinject.New()
	reInj.Arm(faultinject.KindPanicInUnit, inst, prog)
	var qe *engine.QuarantineError
	if _, err := engine.ReplayUnit(ctx, goldenConfig(t), b, reInj); !errors.As(err, &qe) {
		t.Errorf("replay of the lost unit: err = %v, want a *QuarantineError", err)
	}

	cancel()
	wg.Wait()
	died := 0
	for _, w := range workers {
		if w.died {
			died++
		}
	}
	if died != 4 {
		t.Errorf("%d workers died on the unit, want 4", died)
	}
}

// TestSubmitIntegrity drives the protocol by hand: duplicate submissions
// fold exactly once, and a worker whose result payloads fail their digest
// is struck and, at the second strike, banned (evicted), after which it can
// no longer lease work.
func TestSubmitIntegrity(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	co, base := startCoordinator(t, dist.CoordinatorConfig{
		Campaign: cfg,
		LeaseTTL: time.Minute, // no sweeps: this test drives everything
	}, "127.0.0.1:0")

	cl := dist.NewClient(base, nil, 1)
	inst, progs := cfg.Campaign.Instances, cfg.Campaign.Base.Programs
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := cl.Join(ctx, &dist.JoinRequest{
		Worker: "hand", ConfigFP: runner.ConfigFP(), Frontend: runner.FrontendName(),
		Instances: inst, Programs: progs,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A mismatched config fingerprint is refused outright.
	if _, err := cl.Join(ctx, &dist.JoinRequest{
		Worker: "imposter", ConfigFP: runner.ConfigFP() ^ 1, Frontend: runner.FrontendName(),
		Instances: inst, Programs: progs,
	}); err == nil {
		t.Error("join with wrong config fingerprint succeeded")
	}

	rec, draws, err := runner.Run(ctx, engine.UnitID{Inst: 0, Prog: 0})
	if err != nil {
		t.Fatal(err)
	}
	raw, digest, err := dist.EncodeResult(rec)
	if err != nil {
		t.Fatal(err)
	}
	req := &dist.SubmitRequest{
		WorkerID: jr.WorkerID, Inst: 0, Prog: 0,
		Draws: draws, ResultDigest: digest, Result: raw,
	}
	sr, err := cl.Submit(ctx, req)
	if err != nil || !sr.Folded {
		t.Fatalf("first submit: folded=%v err=%v, want true, nil", sr != nil && sr.Folded, err)
	}
	// Byte-identical duplicate (a retransmission): dropped, not refolded.
	sr, err = cl.Submit(ctx, req)
	if err != nil || sr.Folded {
		t.Fatalf("duplicate submit: folded=%v err=%v, want false, nil", sr != nil && sr.Folded, err)
	}
	if m := co.Robustness(); m.DuplicatesDropped != 1 {
		t.Errorf("DuplicatesDropped = %d, want 1", m.DuplicatesDropped)
	}

	// Two submissions whose payloads disagree with their digests: strike,
	// strike, banned.
	bad := *req
	bad.Prog = 1
	bad.ResultDigest = digest ^ 0xdeadbeef
	for i := 0; i < 2; i++ {
		if _, err := cl.Submit(ctx, &bad); err == nil {
			t.Fatalf("corrupt submit %d accepted", i)
		}
	}
	if m := co.Robustness(); m.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (banned after strikes)", m.Evictions)
	}
	if _, err := cl.Lease(ctx, &dist.LeaseRequest{WorkerID: jr.WorkerID, Max: 1}); !errors.Is(err, dist.ErrEvicted) {
		t.Errorf("banned worker lease: err = %v, want ErrEvicted", err)
	}
}

// TestCoordinatorCheckpointIsIncremental: the coordinator's checkpoint is
// the append-only log, so what a fold costs the disk does not depend on how
// far the campaign has come. A hand-driven client submits the whole golden
// campaign; with CheckpointEvery 4, the file grows between two consecutive
// syncs by exactly the four records folded in between — at 10 % progress
// and at 90 % alike — and a retransmitted submission adds nothing.
func TestCoordinatorCheckpointIsIncremental(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	co.SetCheckpointEvery(4)
	cl := dist.NewClient(base, nil, 1)
	jr, err := cl.Join(ctx, &dist.JoinRequest{
		Worker: "hand", ConfigFP: runner.ConfigFP(), Frontend: runner.FrontendName(),
		Instances: cfg.Campaign.Instances, Programs: cfg.Campaign.Base.Programs,
	})
	if err != nil {
		t.Fatal(err)
	}

	// unitsBehind walks the log and returns the units recorded at or behind
	// offset from, and the offset the log ends at. Only the campaign's last
	// fold may bring anything but unit records: the commit record.
	complete := false
	unitsBehind := func(from int) ([]engine.UnitID, int) {
		raw, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
		if err != nil {
			t.Fatal(err)
		}
		var units []engine.UnitID
		end, err := checkpoint.Walk(raw, func(kind byte, payload []byte, end int) error {
			if end <= from || kind == checkpoint.RecHeader || (complete && kind == checkpoint.RecCommit) {
				return nil
			}
			if kind != checkpoint.RecUnit {
				return fmt.Errorf("a %q record behind offset %d", kind, from)
			}
			var u engine.UnitID
			var err error
			u.Inst, u.Prog, _, _, err = checkpoint.SplitUnit(payload)
			units = append(units, u)
			return err
		})
		if err != nil || end != len(raw) {
			t.Fatalf("log walk: ends at %d of %d: %v", end, len(raw), err)
		}
		return units, end
	}

	_, synced := unitsBehind(0) // the header
	var batch []engine.UnitID
	var last *dist.SubmitRequest
	for i := 0; i < cfg.Campaign.Instances; i++ {
		for p := 0; p < cfg.Campaign.Base.Programs; p++ {
			id := engine.UnitID{Inst: i, Prog: p}
			rec, draws, err := runner.Run(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			raw, digest, err := dist.EncodeResult(rec)
			if err != nil {
				t.Fatal(err)
			}
			last = &dist.SubmitRequest{WorkerID: jr.WorkerID, Inst: i, Prog: p, Draws: draws, ResultDigest: digest, Result: raw}
			sr, err := cl.Submit(ctx, last)
			if err != nil || !sr.Folded {
				t.Fatalf("submit (%d,%d): folded=%v err=%v", i, p, sr != nil && sr.Folded, err)
			}
			if batch = append(batch, id); len(batch) < 4 {
				continue
			}
			// The fourth fold since the last sync: the coordinator synced
			// before replying.
			complete = sr.Done
			got, end := unitsBehind(synced)
			if fmt.Sprint(got) != fmt.Sprint(batch) {
				t.Fatalf("after %d folds the log grew by the records of %v, want exactly %v", i*cfg.Campaign.Base.Programs+p+1, got, batch)
			}
			synced, batch = end, nil
		}
	}
	if sr, err := cl.Submit(ctx, last); err != nil || sr.Folded {
		t.Fatalf("duplicate submit: folded=%v err=%v", sr != nil && sr.Folded, err)
	}
	if got, end := unitsBehind(synced); len(got) != 0 || end != synced {
		t.Errorf("a duplicate submission grew the log by %d bytes", end-synced)
	}
	// 80 units, none recorded twice, committed: the file loads, to all of them.
	if st, err := checkpoint.Load(dir); err != nil || len(st.Units) != 80 || st.EpochsDone != 1 {
		t.Errorf("finished log: %v", err)
	}
}

// TestSubmitRejectsMalformedInput: a result whose digest is right but whose
// violation carries an input that is not a valid sandbox — or not its
// record's sandbox — must be refused at decode. Before inputs validated
// themselves it folded, and panicked whoever replayed the violation.
func TestSubmitRejectsMalformedInput(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first unit of the golden campaign that reports a violation.
	var id engine.UnitID
	var rec checkpoint.ResultRec
	var draws uint64
	for ; len(rec.Violations) == 0; id.Prog++ {
		if id.Prog == cfg.Campaign.Base.Programs {
			t.Fatal("no violating unit in instance 0 of the golden campaign")
		}
		if rec, draws, err = runner.Run(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	id.Prog--
	good, digest, err := dist.EncodeResult(rec)
	if err != nil {
		t.Fatal(err)
	}

	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	co.SetMaxStrikes(10)
	cl := dist.NewClient(base, nil, 1)
	jr, err := cl.Join(ctx, &dist.JoinRequest{
		Worker: "hand", ConfigFP: runner.ConfigFP(), Frontend: runner.FrontendName(),
		Instances: cfg.Campaign.Instances, Programs: cfg.Campaign.Base.Programs,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, pages := range []int{0, 3, 2} {
		doc := rec
		doc.Violations = append([]checkpoint.ViolationRec(nil), rec.Violations...)
		doc.Violations[0].InputA, _ = isa.NewInput(isa.Sandbox{Pages: pages}).AppendBinary(nil)
		bad, _, err := dist.EncodeResult(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := new(checkpoint.ResultRec).UnmarshalBinary(bad); err == nil {
			t.Errorf("%d-page input: the result decodes", pages)
		}
		req := &dist.SubmitRequest{
			WorkerID: jr.WorkerID, Inst: id.Inst, Prog: id.Prog,
			Draws: draws, ResultDigest: dist.Digest(bad), Result: bad,
		}
		if _, err := cl.Submit(ctx, req); err == nil {
			t.Errorf("%d-page input: coordinator accepted the submission", pages)
		}
	}
	// The unit is still open: the genuine result folds.
	sr, err := cl.Submit(ctx, &dist.SubmitRequest{
		WorkerID: jr.WorkerID, Inst: id.Inst, Prog: id.Prog,
		Draws: draws, ResultDigest: digest, Result: good,
	})
	if err != nil || !sr.Folded {
		t.Errorf("genuine result after rejected ones: folded=%v err=%v", sr != nil && sr.Folded, err)
	}
}

// handClient joins the golden campaign by hand and returns the client, its
// worker ID, and a runner to produce real unit results with.
func handClient(t *testing.T, base string, cfg engine.Config) (*dist.Client, int64, *engine.UnitRunner) {
	t.Helper()
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := dist.NewClient(base, nil, 1)
	jr, err := cl.Join(context.Background(), &dist.JoinRequest{
		Worker: "hand", ConfigFP: runner.ConfigFP(), Frontend: runner.FrontendName(),
		Instances: cfg.Campaign.Instances, Programs: cfg.Campaign.Base.Programs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, jr.WorkerID, runner
}

// runUnits runs units for real and encodes their results for an exchange.
func runUnits(t *testing.T, runner *engine.UnitRunner, units []dist.Unit) []dist.UnitResult {
	t.Helper()
	var out []dist.UnitResult
	for _, u := range units {
		rec, draws, err := runner.Run(context.Background(), engine.UnitID{Inst: u.Inst, Prog: u.Prog})
		if err != nil {
			t.Fatal(err)
		}
		raw, digest, err := dist.EncodeResult(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dist.UnitResult{Inst: u.Inst, Prog: u.Prog, Draws: draws, ResultDigest: digest, Result: raw})
	}
	return out
}

// TestExchangeRetransmitGetsSameGrant drives exchanges by hand: a
// retransmission — the same sequence number again, as a client sends when
// the reply was lost — is answered with the grant the first copy got, its
// results fold as duplicates, and the lease table does not change; the next
// sequence number earns fresh units. Grants are pinned at 4 units.
func TestExchangeRetransmitGetsSameGrant(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	co.PinGrant(4)
	cl, id, runner := handClient(t, base, cfg)

	first, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 1, Want: 4})
	if err != nil || len(first.Units) != 4 {
		t.Fatalf("exchange 1: %+v, %v; want 4 units", first, err)
	}
	req := &dist.ExchangeRequest{WorkerID: id, Seq: 2, Results: runUnits(t, runner, first.Units), Want: 4}
	second, err := cl.Exchange(ctx, req)
	if err != nil || len(second.Units) != 4 || second.Folded != 4 {
		t.Fatalf("exchange 2: %+v, %v; want 4 fresh units and 4 folds", second, err)
	}
	held := co.LeasesHeld()

	again, err := cl.Exchange(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Units, second.Units) {
		t.Errorf("retransmission was granted %v, the first copy %v", again.Units, second.Units)
	}
	if again.Folded != 0 {
		t.Errorf("retransmission folded %d results again", again.Folded)
	}
	if m := co.Robustness(); m.DuplicatesDropped != 4 {
		t.Errorf("DuplicatesDropped = %d, want the 4 retransmitted results", m.DuplicatesDropped)
	}
	if now := co.LeasesHeld(); !reflect.DeepEqual(now, held) || held[id] != 4 {
		t.Errorf("lease table %v after the retransmission, %v before; want 4 leases both times", now, held)
	}

	third, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 3, Want: 4})
	if err != nil || len(third.Units) != 4 {
		t.Fatalf("exchange 3: %+v, %v; want 4 units", third, err)
	}
	seen := map[dist.Unit]bool{}
	for _, u := range append(append(first.Units, second.Units...), third.Units...) {
		if seen[u] {
			t.Errorf("unit %v granted twice", u)
		}
		seen[u] = true
	}
	// Two grants held: the coordinator leases no third one.
	fourth, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 4, Want: 4})
	if err != nil || len(fourth.Units) != 0 || fourth.Done {
		t.Errorf("exchange 4 while holding two grants: %+v, %v; want no units", fourth, err)
	}
	// A stray copy of an exchange its successors overtook earns nothing: no
	// caller is waiting for that reply, a grant in it would sit out a TTL.
	if _, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 5, Results: runUnits(t, runner, second.Units)}); err != nil {
		t.Fatal(err)
	}
	stray, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 3, Want: 4})
	if err != nil || len(stray.Units) != 0 || co.LeasesHeld()[id] != 4 {
		t.Errorf("stray copy of exchange 3 after exchange 5: %+v, %v, %d leases held; want no units, 4 leases", stray, err, co.LeasesHeld()[id])
	}
}

// TestWorkerIDsSurviveNoRestart: a restarted coordinator deals no ID its
// predecessor dealt, so a worker of the old incarnation is refused (410,
// rejoin) instead of sharing an identity — and its sequence numbers and
// lease allowance — with a new one.
func TestWorkerIDsSurviveNoRestart(t *testing.T) {
	cfg := goldenConfig(t)
	_, base1 := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	_, id1, _ := handClient(t, base1, cfg)
	_, base2 := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	cl2, id2, _ := handClient(t, base2, cfg)
	if id1 == id2 {
		t.Fatalf("two coordinators both dealt worker ID %d", id1)
	}
	if _, err := cl2.Exchange(context.Background(), &dist.ExchangeRequest{WorkerID: id1, Seq: 9, Want: 4}); !errors.Is(err, dist.ErrEvicted) {
		t.Errorf("the other incarnation's worker: err = %v, want ErrEvicted", err)
	}
}

// TestLossyLinkStrandsNothing: every third reply to one of two workers is
// lost. Its retransmissions must earn the grants the lost replies carried —
// the campaign completes with the golden fingerprint, retries and duplicate
// results counted, and nobody evicted, nothing reassigned: a grant leaked by
// a lost reply would sit leased until a TTL reassigned it. Grants are
// pinned at 4 units, so that enough replies carry results to lose some.
func TestLossyLinkStrandsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: 2 * time.Second}, "127.0.0.1:0")
	co.PinGrant(4)
	lossy := faultinject.New()
	lossy.ArmDropEvery(3)
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, map[string]*faultinject.Injector{"lossy": lossy}, "lossy", "clean")

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "lossy link", res)
	m := co.Robustness()
	if m.Retries == 0 || m.DuplicatesDropped == 0 {
		t.Errorf("lost replies left no trace: %d retries, %d duplicates dropped", m.Retries, m.DuplicatesDropped)
	}
	if m.Evictions != 0 || m.Reassigned != 0 {
		t.Errorf("a lost reply stranded leases: %d evictions, %d reassigned", m.Evictions, m.Reassigned)
	}
	cancel()
	wg.Wait()
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}
}

// TestClientFaults drives the client's duplicate, delay and corrupt paths:
// the only worker's 2nd RPC is sent twice, its 3rd reply is held back by
// RPCDelay and its 4th reply arrives with a flipped bit. The coordinator
// must fold the duplicated request once, the slow reply must cost no lease,
// and the corrupted reply must fail its digest and be retried — the
// campaign ends on the golden fingerprint. Grants are pinned at 4 units so
// that the campaign outlasts the first four RPCs.
func TestClientFaults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: 2 * time.Second}, "127.0.0.1:0")
	co.PinGrant(4)
	inj := faultinject.New()
	want := []faultinject.Point{
		{Kind: faultinject.KindDupRPC, A: 2},
		{Kind: faultinject.KindDelayRPC, A: 3},
		{Kind: faultinject.KindCorruptRPC, A: 4, B: 5},
	}
	for _, p := range want {
		inj.Arm(p.Kind, p.A, p.B)
	}
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, map[string]*faultinject.Injector{"faulty": inj}, "faulty")

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "client faults", res)
	fired := inj.Fired()
	for _, p := range want {
		if !slices.Contains(fired, p) {
			t.Errorf("%v at rpc %d never fired (fired: %v)", p.Kind, p.A, fired)
		}
	}
	if m := co.Robustness(); m.Retries < 1 {
		t.Errorf("the corrupted reply was not retried: %d retries", m.Retries)
	}
	cancel()
	wg.Wait()
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}
}

// TestLongUnitKeepsItsLease: one worker runs a unit that takes three lease
// TTLs. While it runs, the worker sends no results, only its heartbeats —
// empty exchanges every TTL/3 — and each renews the leases it holds, so
// none lapses: the campaign ends on the golden fingerprint with nobody
// evicted and nothing reassigned.
func TestLongUnitKeepsItsLease(t *testing.T) {
	const ttl = 200 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: ttl}, "127.0.0.1:0")
	slow := faultinject.New()
	slow.HangDuration = 3 * ttl
	slow.Arm(faultinject.KindHangInUnit, 0, 5)
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, map[string]*faultinject.Injector{"slow": slow}, "slow")

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "long unit", res)
	if len(slow.Fired()) != 1 {
		t.Error("the long unit never ran")
	}
	if m := co.Robustness(); m.Evictions != 0 || m.Reassigned != 0 {
		t.Errorf("a unit of %v on a %v TTL lost its lease: %d evictions, %d reassigned",
			slow.HangDuration, ttl, m.Evictions, m.Reassigned)
	}
	cancel()
	wg.Wait()
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}
}

// TestWorkerHoldsAtMostTwoBatches samples the lease table while two workers
// run the golden campaign: double buffering means a running grant and a
// prefetched one, never more. Then, by hand, it reads the grant sizes of a
// whole campaign: full until the unleased units run short, then tapering
// down to single units, so that the end of a campaign is shared out instead
// of prefetched by whoever asks first. Grants are pinned at 4 units, for
// many of them on the 80-unit campaign; TestGrantSizedInTime reads grants
// sized in time.
func TestWorkerHoldsAtMostTwoBatches(t *testing.T) {
	const leaseUnits = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: time.Second}, "127.0.0.1:0")
	co.PinGrant(leaseUnits)
	var wg sync.WaitGroup
	workers := startWorkers(t, ctx, &wg, base, nil, "w1", "w2")
	most := make(chan int)
	go func() {
		n := 0
		for ctx.Err() == nil {
			for _, held := range co.LeasesHeld() {
				n = max(n, held)
			}
			time.Sleep(50 * time.Microsecond)
		}
		most <- n
	}()
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "two batches", res)
	cancel()
	wg.Wait()
	if n := <-most; n > 2*leaseUnits || n < leaseUnits {
		t.Errorf("a worker held %d leases at once; want a full grant at some point and never more than %d", n, 2*leaseUnits)
	}
	for _, w := range workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			t.Errorf("worker %s: %v", w.name, w.err)
		}
	}

	// Grant sizes, with two workers joined and one of them doing all the
	// asking: min(leaseUnits, max(1, unleased/(2*2))).
	cfg := goldenConfig(t)
	co, base = startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	co.PinGrant(leaseUnits)
	cl, id, _ := handClient(t, base, cfg)
	handClient(t, base, cfg)
	empty, digest, err := dist.EncodeResult(checkpoint.ResultRec{})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var results []dist.UnitResult
	for seq := uint64(1); ; seq++ {
		rep, err := cl.Exchange(context.Background(), &dist.ExchangeRequest{WorkerID: id, Seq: seq, Results: results, Want: dist.GrantAll})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Units) == 0 {
			if !rep.Done {
				t.Fatalf("exchange %d: no units and not done", seq)
			}
			break
		}
		sizes = append(sizes, len(rep.Units))
		results = results[:0]
		for _, u := range rep.Units {
			results = append(results, dist.UnitResult{Inst: u.Inst, Prog: u.Prog, ResultDigest: digest, Result: empty})
		}
	}
	total := 0
	for i, n := range sizes {
		total += n
		if n > leaseUnits || (i > 0 && n > sizes[i-1]) {
			t.Fatalf("grant sizes %v: grant %d is above the lease size or grows again", sizes, i)
		}
	}
	if total != 80 || sizes[0] != leaseUnits || sizes[len(sizes)-1] != 1 {
		t.Errorf("grant sizes %v: want all 80 units, full grants first, single units last", sizes)
	}
}

// TestExchangeIntegrity is TestSubmitIntegrity for a batch: a result whose
// payload fails its digest, in the middle of an exchange, strikes the
// sender and refuses the call, with the results before it folded and the
// ones after it not; the second strike bans the worker — and what a banned
// worker brings is still folded before it is told 410.
func TestExchangeIntegrity(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute}, "127.0.0.1:0")
	co.PinGrant(4)
	cl, id, runner := handClient(t, base, cfg)

	lr, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 1, Want: 4})
	if err != nil || len(lr.Units) != 4 {
		t.Fatalf("lease: %+v, %v", lr, err)
	}
	good := runUnits(t, runner, lr.Units)
	bad := good[1]
	bad.ResultDigest ^= 0xdeadbeef

	if _, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 2, Results: []dist.UnitResult{good[0], bad, good[2]}}); err == nil || errors.Is(err, dist.ErrEvicted) {
		t.Fatalf("batch with a corrupt result: err = %v, want a refusal", err)
	}
	// good[0] was folded before the refusal, good[2] was not looked at.
	rep, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 3, Results: []dist.UnitResult{good[0], good[2]}})
	if err != nil || rep.Folded != 1 {
		t.Fatalf("after the refusal: %+v, %v; want one new fold (the result behind the corrupt one)", rep, err)
	}
	if m := co.Robustness(); m.DuplicatesDropped != 1 || m.Evictions != 0 {
		t.Errorf("after one strike: %d duplicates dropped, %d evictions; want 1, 0", m.DuplicatesDropped, m.Evictions)
	}

	if _, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 4, Results: []dist.UnitResult{bad}}); err == nil {
		t.Fatal("second corrupt result accepted")
	}
	if m := co.Robustness(); m.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (banned after two strikes)", m.Evictions)
	}
	// Eviction revokes scheduling, not results.
	if _, err := cl.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id, Seq: 5, Results: []dist.UnitResult{good[3]}, Want: 4}); !errors.Is(err, dist.ErrEvicted) {
		t.Errorf("banned worker's exchange: err = %v, want ErrEvicted", err)
	}
	cl2, id2, _ := handClient(t, base, cfg)
	rep, err = cl2.Exchange(ctx, &dist.ExchangeRequest{WorkerID: id2, Seq: 1, Results: []dist.UnitResult{good[3]}})
	if err != nil || rep.Folded != 0 {
		t.Errorf("the banned worker's last result again: %+v, %v; want a duplicate — it was folded before the 410", rep, err)
	}
}

// TestExchangesPerUnit pins what the pipelined protocol costs a clean
// campaign in round trips: an exchange per grant, not a lease per batch
// plus a submit per unit. Grants are pinned at 4 units, so that the count
// is mostly grants on the 80-unit campaign.
func TestExchangesPerUnit(t *testing.T) {
	const (
		units, leaseUnits, nWorkers = 80, 4, 2
		ttl                         = time.Second
		// Per worker, beyond its share of units/leaseUnits: the join, two
		// exchanges before the first result exists (the running and the
		// prefetched grant), the tapered grants at the end — 3+2+1+1 units
		// where one full grant would do, a worker may see all of them — and
		// the exchange that hears "done".
		perWorker = 1 + 2 + 4 + 1
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: ttl}, "127.0.0.1:0")
	co.PinGrant(leaseUnits)
	injs := map[string]*faultinject.Injector{"w1": faultinject.New(), "w2": faultinject.New()}
	var wg sync.WaitGroup
	t0 := time.Now()
	startWorkers(t, ctx, &wg, base, injs, "w1", "w2")
	res, err := co.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "rpc count", res)
	cancel()
	wg.Wait()
	// Heartbeats (every TTL/3) and the polls of a worker with nothing to do
	// (every TTL/4) are the clock's, not the protocol's: allow what the
	// elapsed time explains.
	elapsed := time.Since(t0)
	clock := int(elapsed/(ttl/3)) + int(elapsed/(ttl/4))
	rpcs := 0
	for _, inj := range injs {
		rpcs += inj.RPCs()
	}
	if budget := units/leaseUnits + nWorkers*(perWorker+clock); rpcs > budget {
		t.Errorf("%d RPCs for %d units in %v, want at most %d", rpcs, units, elapsed, budget)
	}
	t.Logf("%d RPCs for %d units (%.2f per unit) in %v", rpcs, units, float64(rpcs)/units, elapsed)
	if m := co.Robustness(); m.Retries+m.Evictions+m.Reassigned+m.DuplicatesDropped != 0 {
		t.Errorf("clean run: robustness counters non-zero: %+v", m)
	}
}

// TestServerRefusesOversizedBody: a request that declares more than the
// body limit is answered 413 at once — the coordinator does not wait for,
// let alone buffer, the bytes.
func TestServerRefusesOversizedBody(t *testing.T) {
	co, _ := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: time.Minute}, "127.0.0.1:0")
	conn, err := net.Dial("tcp", co.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 1 GiB declared, a few bytes sent.
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n12345678{}", dist.PathExchange, 1<<30)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to an oversized request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}

	// Undeclared (chunked) and past the limit: still 413, nothing buffered
	// past it. The server stops reading, so the writer may see a reset.
	pr, pw := io.Pipe()
	go func() {
		chunk := make([]byte, 1<<20)
		for i := 0; i < 66; i++ {
			if _, err := pw.Write(chunk); err != nil {
				break
			}
		}
		pw.Close()
	}()
	hresp, err := http.Post("http://"+co.Addr().String()+dist.PathExchange, "application/octet-stream", pr)
	if err != nil {
		if !strings.Contains(err.Error(), "reset") && !strings.Contains(err.Error(), "broken pipe") {
			t.Fatalf("chunked oversized request: %v", err)
		}
		return
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked oversized request: status %d, want 413", hresp.StatusCode)
	}
}

// TestServerClosesStalledConnection: a peer that sends half a header and
// stops is cut off after the header timeout (one lease TTL), not held.
func TestServerClosesStalledConnection(t *testing.T) {
	const ttl = 200 * time.Millisecond
	co, _ := startCoordinator(t, dist.CoordinatorConfig{Campaign: goldenConfig(t), LeaseTTL: ttl}, "127.0.0.1:0")
	conn, err := net.Dial("tcp", co.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Le", dist.PathJoin)
	t0 := time.Now()
	conn.SetReadDeadline(t0.Add(50 * ttl))
	// The server may say 400 first; what matters is that it hangs up.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection: %v after %v, want the server to have closed it", err, time.Since(t0))
	}
	if d := time.Since(t0); d < ttl/2 {
		t.Errorf("closed after %v, before the %v header timeout", d, ttl)
	}
}
