package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
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
	out := make([]*testWorker, len(names))
	for i, name := range names {
		cfg := goldenConfig(t)
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
	if m := co.Robustness(); m.Evictions != 0 || m.Reassigned != 0 || m.DegradedLocal != 0 {
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

// TestDistributedFaultSweep drives the full failure menagerie at once —
// a worker killed by an injected simulator panic (lease expiry +
// reassignment), a worker on a deterministically lossy link (dropped
// responses, retries, duplicate submissions), a worker whose network is
// severed mid-campaign (heartbeat lapse, eviction) — and proves the final
// results are still bit-identical to the golden single-process run, with
// the robustness counters recording what was absorbed.
func TestDistributedFaultSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	co, base := startCoordinator(t, dist.CoordinatorConfig{
		Campaign: goldenConfig(t),
		LeaseTTL: 500 * time.Millisecond,
	}, "127.0.0.1:0")

	victim := faultinject.New()
	victim.Arm(faultinject.KindPanicInUnit, faultinject.Any, faultinject.Any)
	lossy := faultinject.New()
	lossy.ArmDropEvery(3)
	severed := faultinject.New()
	severed.ArmSever(40)

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
				Campaign:        cfg,
				LeaseTTL:        500 * time.Millisecond,
				CheckpointEvery: 4,
			}
			co1, base := startCoordinator(t, ccfg, "127.0.0.1:0")
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

// TestLocalFallback: a coordinator whose fleet never shows up (or dies —
// same code path) finishes the campaign itself after the degradation
// grace, still bit-identical, with the transition counted.
func TestLocalFallback(t *testing.T) {
	co, _ := startCoordinator(t, dist.CoordinatorConfig{
		Campaign:     goldenConfig(t),
		LeaseTTL:     200 * time.Millisecond,
		DegradeGrace: 100 * time.Millisecond,
	}, "127.0.0.1:0")
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	checkGolden(t, "local fallback", res)
	m := co.Robustness()
	if m.DegradedLocal == 0 {
		t.Error("fleet death was not counted as a degraded-to-local transition")
	}
	if tot := res.Totals(); tot.Metrics.DegradedLocal == 0 {
		t.Error("DegradedLocal not surfaced through result metrics")
	}
}

// TestSubmitIntegrity drives the protocol by hand: duplicate submissions
// fold exactly once, and a worker whose result payloads fail their digest
// is struck and ultimately banned (evicted), after which it can no longer
// lease work.
func TestSubmitIntegrity(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig(t)
	co, base := startCoordinator(t, dist.CoordinatorConfig{
		Campaign:   cfg,
		LeaseTTL:   time.Minute, // no sweeps: this test drives everything
		MaxStrikes: 2,
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
	_, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute, CheckpointEvery: 4}, "127.0.0.1:0")
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
			err := json.Unmarshal(payload, &u)
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
// violation carries input memory that is not a whole sandbox — or not its
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

	_, base := startCoordinator(t, dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Minute, MaxStrikes: 10}, "127.0.0.1:0")
	cl := dist.NewClient(base, nil, 1)
	jr, err := cl.Join(ctx, &dist.JoinRequest{
		Worker: "hand", ConfigFP: runner.ConfigFP(), Frontend: runner.FrontendName(),
		Instances: cfg.Campaign.Instances, Programs: cfg.Campaign.Base.Programs,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{100, 3 * isa.PageSize, 2 * isa.PageSize} {
		var doc map[string]any
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		doc["Violations"].([]any)[0].(map[string]any)["InputA"].(map[string]any)["Mem"] = make([]byte, n)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		req := &dist.SubmitRequest{
			WorkerID: jr.WorkerID, Inst: id.Inst, Prog: id.Prog,
			Draws: draws, ResultDigest: dist.Digest(bad), Result: bad,
		}
		if _, err := dist.DecodeResult(req); err == nil || errors.Is(err, dist.ErrBadDigest) {
			t.Errorf("%d-byte input memory: DecodeResult err = %v, want a decode error", n, err)
		}
		if _, err := cl.Submit(ctx, req); err == nil {
			t.Errorf("%d-byte input memory: coordinator accepted the submission", n)
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
