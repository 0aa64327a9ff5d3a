package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
)

// tracedResult is the detailed record of one traced workload run.
type tracedResult struct {
	Workload    string    `json:"workload"`
	Header      header    `json:"header"`
	Metrics     metricSet `json:"metrics"`
	Attempted   int       `json:"ops_attempted"`
	Failed      int       `json:"ops_failed"`
	Correct     bool      `json:"correct"`
	Problems    []string  `json:"problems,omitempty"`
	TraceFile   string    `json:"trace_file"`
	Spans       int       `json:"spans"`
	Fingerprint string    `json:"replica_fingerprint"`
	Cases       int       `json:"replica_cases"`
	// WallS are the walls the ratios above were formed from.
	WallS map[string]float64 `json:"wall_s"`
}

func (r *tracedResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// unitResult is one unit as engine.UnitRunner returned it; the dist RTT
// measurement replays these as precomputed submissions.
type unitResult struct {
	id    engine.UnitID
	rec   checkpoint.ResultRec
	draws uint64
}

// traced is the per-layer run of one workload: one traced replica pass,
// then the engine, checkpoint and dist layers timed from outside through
// their public functions. It never runs in the process that measures the
// end-to-end metrics.
func (e *env) traced(ctx context.Context, w workload) (*tracedResult, error) {
	cfg, err := w.config(e.sc, e.seed, benchWorkers)
	if err != nil {
		return nil, err
	}
	out := &tracedResult{Workload: w.name, Header: newHeader(e), Metrics: newMetricSet(perLayer), Correct: true}
	m := out.Metrics

	// The engine at two workers: the reference output, and — for the
	// corpus workload — the checkpoint whose final corpus the replica
	// generates from (corpus admission is private to the engine).
	var ckptDir string
	w2cfg := cfg
	if w.checkpoint {
		if ckptDir, err = e.ckptDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ckptDir)
		w2cfg.CheckpointDir = ckptDir
	}
	w2, err := runEngine(ctx, w2cfg)
	if err != nil {
		return nil, fmt.Errorf("engine (2 workers): %w", err)
	}
	refFP := w2.fingerprint()

	var strat generator.Strategy = generator.Random{}
	if w.corpus {
		if strat, err = frozenCorpus(ckptDir); err != nil {
			return nil, err
		}
	}

	// The traced replica pass.
	rep, err := newReplica(ctx, cfg, strat, e.sc.probeEvery)
	if err != nil {
		return nil, err
	}
	ro, err := rep.run(ctx, cfg.Campaign.Instances)
	if err != nil {
		return nil, err
	}
	rep.fill(m)
	out.Attempted = rep.units
	out.Spans = len(rep.tr.spans)
	out.TraceFile = filepath.Join(e.traceDir, "trace-"+w.name+".jsonl")
	if err := rep.tr.flush(out.TraceFile); err != nil {
		return nil, err
	}
	repFP := fuzzer.ViolationFingerprint(ro.res.Violations)
	out.Fingerprint, out.Cases = fpString(repFP), ro.res.TestCases
	if w.corpus {
		// The replica ran different programs than the engine did (every
		// unit from the final corpus), so it is pinned on its own.
		if g, err := loadGolden(e.sc); err != nil {
			return nil, err
		} else if gw := g[w.name]; e.seed == goldenSeed && (out.Fingerprint != gw.ReplicaFingerprint || out.Cases != gw.ReplicaCases) {
			out.problem("replica output %s/%d cases, golden %s/%d", out.Fingerprint, out.Cases, gw.ReplicaFingerprint, gw.ReplicaCases)
		}
	} else if repFP != refFP || (!w.stopFirst && ro.res.TestCases != w2.res.TestCases) {
		out.problem("replica output %s/%d cases differs from the engine's %s/%d",
			out.Fingerprint, out.Cases, fpString(refFP), w2.res.TestCases)
	}

	// Engine layer. One worker is the tracing-overhead baseline and the
	// scaling curve's first point; scheduling overhead is what the entry
	// point's wall holds beyond the unit times the engine itself reports.
	w1cfg := cfg
	w1cfg.Workers = 1
	w1, err := runEngine(ctx, w1cfg)
	if err != nil {
		return nil, fmt.Errorf("engine (1 worker): %w", err)
	}
	if fp := w1.fingerprint(); fp != refFP {
		out.problem("engine output differs between 1 and 2 workers: %s vs %s", fpString(fp), fpString(refFP))
	}
	cps := func(o *outcome) float64 { return ratio(float64(o.res.TestCases), o.wall.Seconds()) }
	var unitTime time.Duration
	for _, in := range w1.res.Instances {
		unitTime += in.Elapsed
	}
	// The second two-worker sample runs without a checkpoint directory, so
	// the speed-up compares like with like on every workload.
	w2plain, err := runEngine(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine (2 workers): %w", err)
	}
	out.WallS = map[string]float64{"replica": ro.wall.Seconds(), "probes": rep.p.probeTotal.Seconds(),
		"engine_w1": w1.wall.Seconds(), "engine_w2": w2plain.wall.Seconds()}
	m.set("trace_overhead_pct", 100*(ratio(cps(w1), ratio(float64(ro.res.TestCases), ro.wall.Seconds()))-1))
	m.set("engine.cases_per_s_w1", cps(w1))
	m.set("engine.w2_speedup", ratio(cps(w2plain), cps(w1)))
	m.set("engine.sched_overhead_pct", 100*(1-ratio(unitTime.Seconds(), w1.wall.Seconds())))
	m.set("engine.wasted_units_pct", 100*ratio(float64(w2plain.unitsRun()-necessaryUnits(cfg, w2plain.res)), float64(w2plain.unitsRun())))

	var units []unitResult
	if w.corpus {
		// UnitRunner and DistCampaign are random-strategy only; the
		// replica's unit spans are the same work.
		m.set("engine.unit_ms_p50", percentile(rep.unitMS, 50))
		m.set("engine.unit_ms_p99", percentile(rep.unitMS, 99))
	} else if units, err = unitRunnerPass(ctx, cfg, e.sc.probeEvery, refFP, out); err != nil {
		return nil, err
	}

	if w.checkpoint {
		if err := e.checkpointLayer(ctx, cfg, w2cfg, w2, w2plain, refFP, out); err != nil {
			return nil, err
		}
	}
	if w.dist {
		if err := e.distLayer(ctx, cfg, units, w2plain, refFP, out); err != nil {
			return nil, err
		}
	}
	if !out.Correct {
		// A pass whose output is wrong did no valid work.
		out.Failed = out.Attempted
	}
	return out, nil
}

// frozenCorpus decodes the final corpus from the checkpoint a finished
// corpus-strategy campaign wrote.
func frozenCorpus(dir string) (generator.Strategy, error) {
	st, err := checkpoint.Load(dir)
	if err != nil {
		return nil, err
	}
	entries := make([]generator.CorpusEntry, len(st.Corpus))
	for i, c := range st.Corpus {
		prog, err := c.Src.Decode()
		if err != nil {
			return nil, err
		}
		entries[i] = generator.CorpusEntry{Prog: prog, NewBits: c.NewBits, Violating: c.Violating}
	}
	return generator.NewCorpusStrategy(entries), nil
}

// unitRunnerPass runs every necessary unit through engine.UnitRunner (the
// dist worker's half), folds the results through engine.DistCampaign (the
// coordinator's half) and times both.
func unitRunnerPass(ctx context.Context, cfg engine.Config, every int, refFP uint64, out *tracedResult) ([]unitResult, error) {
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		return nil, err
	}
	dc, err := engine.NewDistCampaign(cfg)
	if err != nil {
		return nil, err
	}
	var units []unitResult
	var unitMS []float64
	var encode time.Duration
	encoded := 0
	for i := 0; i < cfg.Campaign.Instances; i++ {
		for p := 0; p < cfg.Campaign.Base.Programs; p++ {
			id := engine.UnitID{Inst: i, Prog: p}
			t := time.Now()
			rec, draws, err := runner.Run(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("UnitRunner.Run(%d,%d): %w", i, p, err)
			}
			unitMS = append(unitMS, float64(since(&t))/1e6)
			if len(units)%every == 0 {
				res := rec.Decode()
				t = time.Now()
				checkpoint.EncodeResult(res)
				encode += since(&t)
				encoded++
			}
			if _, err := dc.RecordRemote(id, rec, draws); err != nil {
				return nil, err
			}
			units = append(units, unitResult{id, rec, draws})
			if cfg.Campaign.Base.StopOnFirstViolation && len(rec.Violations) > 0 {
				break
			}
		}
	}
	t := time.Now()
	res := dc.Result()
	fold := since(&t)
	if fp := fuzzer.ViolationFingerprint(res.Violations); fp != refFP {
		out.problem("UnitRunner + DistCampaign fold gave %s, the engine %s", fpString(fp), fpString(refFP))
	}
	m := out.Metrics
	m.set("engine.unit_ms_p50", percentile(unitMS, 50))
	m.set("engine.unit_ms_p99", percentile(unitMS, 99))
	m.set("engine.fold_ms", float64(fold)/1e6)
	m.set("checkpoint.encode_result_ns_per_unit", ratio(float64(encode.Nanoseconds()), float64(encoded)))
	return units, nil
}

// checkpointLayer prices durability on the checkpointing workload. with is
// the two-worker campaign that wrote withCfg.CheckpointDir, without the
// same campaign with no checkpoint directory.
func (e *env) checkpointLayer(ctx context.Context, cfg, withCfg engine.Config, with, without *outcome, refFP uint64, out *tracedResult) error {
	m := out.Metrics
	dir := withCfg.CheckpointDir

	// A second pair, so the share rests on the median of two samples a side.
	dir2, err := e.ckptDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	with2cfg := withCfg
	with2cfg.CheckpointDir = dir2
	with2, err := runEngine(ctx, with2cfg)
	if err != nil {
		return err
	}
	without2, err := runEngine(ctx, cfg)
	if err != nil {
		return err
	}
	wWith := median([]float64{with.wall.Seconds(), with2.wall.Seconds()})
	wWithout := median([]float64{without.wall.Seconds(), without2.wall.Seconds()})
	m.set("checkpoint.share_pct", 100*(1-ratio(wWithout, wWith)))

	if fi, err := os.Stat(filepath.Join(dir, checkpoint.FileName)); err != nil {
		return err
	} else {
		m.set("checkpoint.bytes", float64(fi.Size()))
	}
	t := time.Now()
	st, err := checkpoint.Load(dir)
	if err != nil {
		return err
	}
	m.set("checkpoint.load_ms", float64(since(&t))/1e6)

	// Save is timed from outside: what the campaign wrote, written again to
	// a fresh directory, as many times as the campaign saved.
	var saveMS []float64
	for i := 0; i < st.Epochs; i++ {
		fresh, err := e.ckptDir()
		if err != nil {
			return err
		}
		t = time.Now()
		err = checkpoint.Save(fresh, st, nil)
		saveMS = append(saveMS, float64(since(&t))/1e6)
		os.RemoveAll(fresh)
		if err != nil {
			return err
		}
	}
	m.set("checkpoint.save_ms_p50", percentile(saveMS, 50))
	m.set("checkpoint.save_ms_max", percentile(saveMS, 100))
	var encode time.Duration
	for i := 0; i < len(st.Units); i += e.sc.probeEvery {
		res := st.Units[i].Result.Decode()
		t = time.Now()
		checkpoint.EncodeResult(res)
		encode += since(&t)
	}
	m.set("checkpoint.encode_result_ns_per_unit",
		ratio(float64(encode.Nanoseconds()), float64((len(st.Units)+e.sc.probeEvery-1)/e.sc.probeEvery)))

	// The read side: resuming the finished campaign.
	resumeCfg := withCfg
	resumeCfg.Resume = true
	resumed, err := runEngine(ctx, resumeCfg)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	m.set("checkpoint.resume_s", resumed.wall.Seconds())
	if fp := resumed.fingerprint(); fp != refFP {
		out.problem("resumed campaign gave %s, the original %s", fpString(fp), fpString(refFP))
	}
	return nil
}

// distLayer prices distribution on dist-loopback: a clean loopback run, a
// run through the counting proxy, and a bench-owned dist.Client that
// replays the precomputed unit results against a live coordinator to time
// single RPCs. single is the identical single-process campaign.
func (e *env) distLayer(ctx context.Context, cfg engine.Config, units []unitResult, single *outcome, refFP uint64, out *tracedResult) error {
	m := out.Metrics
	checkDist := func(label string, o *outcome, err error) error {
		if o == nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if err != nil {
			out.problem("%s: %v", label, err)
		}
		if fp := o.fingerprint(); fp != refFP {
			out.problem("%s gave %s, the single-process campaign %s", label, fpString(fp), fpString(refFP))
		}
		return nil
	}

	clean, err := runDist(ctx, cfg, e.sc.leaseTTL, benchWorkers, nil)
	if err := checkDist("dist run", clean, err); err != nil {
		return err
	}
	distCPS := ratio(float64(clean.res.TestCases), clean.wall.Seconds())
	m.set("dist.tail_s", clean.tail.Seconds())
	m.set("dist.overhead_pct", 100*(1-ratio(distCPS, ratio(float64(single.res.TestCases), single.wall.Seconds()))))
	lo, hi := clean.workerUnits[0], clean.workerUnits[0]
	for _, n := range clean.workerUnits {
		lo, hi = min(lo, n), max(hi, n)
	}
	m.set("dist.worker_balance", ratio(float64(lo), float64(hi)))
	m.set("dist.retries", float64(clean.robustness.Retries))
	m.set("dist.evictions", float64(clean.robustness.Evictions))
	m.set("dist.duplicates", float64(clean.robustness.DuplicatesDropped))

	proxy := &countingProxy{}
	proxied, err := runDist(ctx, cfg, e.sc.leaseTTL, benchWorkers, proxy)
	if err := checkDist("dist run through the counting proxy", proxied, err); err != nil {
		return err
	}
	nUnits := float64(len(units))
	m.set("dist.rpcs_per_unit", ratio(float64(proxy.rpcs.Load()), nUnits))
	m.set("dist.wire_bytes_per_unit", ratio(float64(proxy.bytes.Load()), nUnits))

	return e.rpcLatency(ctx, cfg, units, refFP, out)
}

// rpcLatency drives a live coordinator with a bench-owned dist.Client:
// lease, then submit each leased unit's precomputed result, until the
// campaign is complete. With no simulation between the calls, the round
// trips are the protocol's own cost.
func (e *env) rpcLatency(ctx context.Context, cfg engine.Config, units []unitResult, refFP uint64, out *tracedResult) error {
	m := out.Metrics
	byID := make(map[engine.UnitID]*unitResult, len(units))
	for i := range units {
		byID[units[i].id] = &units[i]
	}
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: e.sc.leaseTTL})
	if err != nil {
		return err
	}
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	type runOut struct {
		res *fuzzer.CampaignResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := co.Run(ctx)
		done <- runOut{res, err}
	}()
	// Whatever happens below, wait for the coordinator to shut down.
	finish := func() runOut { return <-done }

	dc, err := engine.NewDistCampaign(cfg)
	if err != nil {
		finish()
		return err
	}
	client := dist.NewClient("http://"+addr.String(), nil, 1)
	jr, err := client.Join(ctx, &dist.JoinRequest{
		Worker: "bench-client", ConfigFP: dc.ConfigFP(), Frontend: dc.FrontendName(),
		Instances: cfg.Campaign.Instances, Programs: cfg.Campaign.Base.Programs,
	})
	if err != nil {
		finish()
		return fmt.Errorf("join: %w", err)
	}
	var leaseUS, submitUS []float64
	var seal time.Duration
	sealed := 0
	for complete := false; !complete; {
		t := time.Now()
		lr, err := client.Lease(ctx, &dist.LeaseRequest{WorkerID: jr.WorkerID})
		if err != nil {
			finish()
			return fmt.Errorf("lease: %w", err)
		}
		leaseUS = append(leaseUS, float64(since(&t))/1e3)
		if len(lr.Units) == 0 {
			complete = lr.Done
			continue
		}
		for _, u := range lr.Units {
			ur := byID[engine.UnitID{Inst: u.Inst, Prog: u.Prog}]
			if ur == nil {
				finish()
				return fmt.Errorf("coordinator leased unit (%d,%d), which the UnitRunner pass never ran", u.Inst, u.Prog)
			}
			raw, digest, err := dist.EncodeResult(ur.rec)
			if err != nil {
				finish()
				return err
			}
			req := &dist.SubmitRequest{WorkerID: jr.WorkerID, Inst: u.Inst, Prog: u.Prog,
				Draws: ur.draws, ResultDigest: digest, Result: raw}
			t = time.Now()
			sr, err := client.Submit(ctx, req)
			if err != nil {
				finish()
				return fmt.Errorf("submit: %w", err)
			}
			submitUS = append(submitUS, float64(since(&t))/1e3)
			if len(submitUS)%e.sc.probeEvery == 0 {
				t = time.Now()
				data, err := dist.Seal(req)
				if err == nil {
					err = dist.Unseal(data, &dist.SubmitRequest{})
				}
				if err != nil {
					finish()
					return err
				}
				seal += since(&t)
				sealed++
			}
			if sr.Done {
				complete = true
				break
			}
		}
	}
	ro := finish()
	if ro.err != nil {
		out.problem("coordinator under the bench client: %v", ro.err)
	}
	if fp := fuzzer.ViolationFingerprint(ro.res.Violations); fp != refFP {
		out.problem("replayed submissions folded to %s, the engine gave %s", fpString(fp), fpString(refFP))
	}
	m.set("dist.lease_rtt_us_p50", percentile(leaseUS, 50))
	m.set("dist.lease_rtt_us_p99", percentile(leaseUS, 99))
	m.set("dist.submit_rtt_us_p50", percentile(submitUS, 50))
	m.set("dist.submit_rtt_us_p99", percentile(submitUS, 99))
	m.set("dist.seal_unseal_ns_per_msg", ratio(float64(seal.Nanoseconds()), float64(sealed)))
	return nil
}
