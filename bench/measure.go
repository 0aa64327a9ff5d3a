package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/sith-lab/amulet-go/internal/engine"
)

// goldenSeed is the benchmark seed whose outputs golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins one workload's output at goldenSeed. Cases is 0 where the
// case count is not deterministic (stop-on-first races decide how many
// dead units run). NecessaryUnits is the reference detect_s is scaled to.
type golden struct {
	Fingerprint    string `json:"fingerprint"`
	Violations     int    `json:"violations"`
	Cases          int    `json:"cases"`
	NecessaryUnits int    `json:"necessary_units"`
	// The traced replica's own output, pinned only where it cannot be
	// compared with the engine's (corpus-wasm-ckpt).
	ReplicaFingerprint string `json:"replica_fingerprint,omitempty"`
	ReplicaCases       int    `json:"replica_cases,omitempty"`
}

// loadGolden returns the pins of one scale, keyed by workload name.
func loadGolden(sc scale) (map[string]golden, error) {
	var all map[string]map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[sc.name]
	if !ok {
		return nil, fmt.Errorf("golden.json: no %q section", sc.name)
	}
	return g, nil
}

// env is what one benchmark process was asked to do.
type env struct {
	sc       scale
	seed     int64
	seconds  float64
	ckptRoot string // per-process temp dir; checkpoint dirs live under it
	traceDir string // where the traced pass writes trace-<workload>.jsonl
}

// ckptDir returns a fresh, not yet existing checkpoint directory path.
func (e *env) ckptDir() (string, error) {
	dir, err := os.MkdirTemp(e.ckptRoot, "ckpt-")
	if err != nil {
		return "", err
	}
	// checkpoint.Save creates the directory itself; hand out the bare name
	// so a campaign starts exactly as a user's would.
	return dir, os.Remove(dir)
}

// repSample is one timed campaign.
type repSample struct {
	WallS       float64 `json:"wall_s"`
	TailS       float64 `json:"tail_s,omitempty"`
	CPUS        float64 `json:"cpu_s"`
	Mallocs     uint64  `json:"mallocs"`
	Cases       int     `json:"cases"`
	UnitsRun    int     `json:"units_run"`
	Necessary   int     `json:"necessary_units"`
	Failed      int     `json:"failed_units"`
	Violations  int     `json:"violations"`
	Fingerprint string  `json:"fingerprint"`
}

// e2eResult is the detailed record of one untraced workload run; the result
// file and -compare work from it.
type e2eResult struct {
	Workload  string               `json:"workload"`
	Header    header               `json:"header"`
	Reps      []repSample          `json:"reps"`
	Values    map[string][]float64 `json:"values"` // per-sample values of each end-to-end metric
	Metrics   metricSet            `json:"metrics"`
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	FailShare float64              `json:"fail_share"`
	Correct   bool                 `json:"correct"`
	Problems  []string             `json:"problems,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runCampaign runs one campaign of w through its real entry point with a
// fresh pool / coordinator, and a fresh checkpoint directory that is gone
// again when it returns.
func (e *env) runCampaign(ctx context.Context, w workload, cfg engine.Config, distWorkers int) (*outcome, error) {
	if w.checkpoint {
		dir, err := e.ckptDir()
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	if w.dist {
		return runDist(ctx, cfg, e.sc.leaseTTL, distWorkers, nil)
	}
	return runEngine(ctx, cfg)
}

// timedRep runs one full campaign and takes the process counters around it.
func (e *env) timedRep(ctx context.Context, w workload, cfg engine.Config) (repSample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	o, err := e.runCampaign(ctx, w, cfg, benchWorkers)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if o == nil {
		return repSample{}, err
	}
	s := repSample{
		WallS:       o.wall.Seconds(),
		TailS:       o.tail.Seconds(),
		CPUS:        cpu1 - cpu0,
		Mallocs:     m1.Mallocs - m0.Mallocs,
		Cases:       o.res.TestCases,
		UnitsRun:    o.unitsRun(),
		Necessary:   necessaryUnits(cfg, o.res),
		Failed:      degradedUnits(o.res),
		Violations:  len(o.res.Violations),
		Fingerprint: fpString(o.fingerprint()),
	}
	if w.dist {
		if n := robustnessTotal(o.robustness); n != 0 {
			err = errors.Join(err, fmt.Errorf("dist robustness counters not zero: %+v", o.robustness))
		}
	}
	return s, err
}

// checkRep compares one rep's output with the first rep's (any seed) and
// with the golden pins (goldenSeed only). Under stop-on-first the case
// count is racy and not compared.
func checkRep(w workload, seed int64, g golden, first, s repSample) []string {
	var bad []string
	if s.Fingerprint != first.Fingerprint || s.Violations != first.Violations {
		bad = append(bad, fmt.Sprintf("rep output %s/%d differs from first rep %s/%d",
			s.Fingerprint, s.Violations, first.Fingerprint, first.Violations))
	}
	if !w.stopFirst && s.Cases != first.Cases {
		bad = append(bad, fmt.Sprintf("rep ran %d cases, first rep %d", s.Cases, first.Cases))
	}
	if seed != goldenSeed {
		return bad
	}
	if s.Fingerprint != g.Fingerprint || s.Violations != g.Violations {
		bad = append(bad, fmt.Sprintf("output %s/%d violations, golden %s/%d",
			s.Fingerprint, s.Violations, g.Fingerprint, g.Violations))
	}
	if g.Cases != 0 && s.Cases != g.Cases {
		bad = append(bad, fmt.Sprintf("%d cases, golden %d", s.Cases, g.Cases))
	}
	if s.Necessary != g.NecessaryUnits {
		bad = append(bad, fmt.Sprintf("%d necessary units, golden %d", s.Necessary, g.NecessaryUnits))
	}
	return bad
}

// measure is the untraced run of one workload: set-up samples (which double
// as warm-up), one discarded warm-up rep, then timed reps for e.seconds.
func (e *env) measure(ctx context.Context, w workload) (*e2eResult, error) {
	goldens, err := loadGolden(e.sc)
	if err != nil {
		return nil, err
	}
	g, ok := goldens[w.name]
	if !ok {
		return nil, fmt.Errorf("golden.json: no entry for %s/%s", e.sc.name, w.name)
	}
	cfg, err := w.config(e.sc, e.seed, benchWorkers)
	if err != nil {
		return nil, err
	}
	out := &e2eResult{Workload: w.name, Header: newHeader(e), Values: map[string][]float64{}, Correct: true}

	// Set-up: the cold-start campaign, a fresh pool (or coordinator) each.
	samples := e.sc.setupSamples
	if w.dist {
		samples = e.sc.distSetupSamples
	}
	for i := 0; i < samples; i++ {
		o, err := e.runCampaign(ctx, w, coldStart(cfg), 1)
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		out.Values["setup_s"] = append(out.Values["setup_s"], (o.wall + o.tail).Seconds())
	}

	// Warm-up. dist-loopback warms up on the identical single-process
	// campaign instead: that is also the reference its fingerprint must
	// equal at any seed, and the wire path is already warm from set-up.
	var ref *outcome
	if w.dist {
		ref, err = runEngine(ctx, cfg)
	} else {
		_, err = e.runCampaign(ctx, w, cfg, benchWorkers)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}

	measured := 0.0
	for len(out.Reps) < e.sc.minReps || measured < e.seconds {
		s, err := e.timedRep(ctx, w, cfg)
		if err != nil && s.Cases == 0 {
			return nil, err
		}
		var bad []string
		if err != nil {
			bad = append(bad, err.Error())
		}
		if len(out.Reps) == 0 && ref != nil {
			if fp := fpString(ref.fingerprint()); fp != s.Fingerprint || ref.res.TestCases != s.Cases {
				bad = append(bad, fmt.Sprintf("distributed output %s/%d cases differs from the single-process campaign's %s/%d",
					s.Fingerprint, s.Cases, fp, ref.res.TestCases))
			}
		}
		first := s
		if len(out.Reps) > 0 {
			first = out.Reps[0]
		}
		bad = append(bad, checkRep(w, e.seed, g, first, s)...)
		if len(bad) > 0 {
			// A rep whose output is wrong did no valid work.
			s.Failed = s.UnitsRun
			out.Correct = false
			for _, b := range bad {
				out.Problems = append(out.Problems, fmt.Sprintf("rep %d: %s", len(out.Reps), b))
			}
		}
		out.Reps = append(out.Reps, s)
		out.Attempted += s.UnitsRun
		out.Failed += s.Failed
		measured += s.WallS + s.TailS
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	out.FailShare = ratio(float64(out.Failed), float64(out.Attempted))

	for _, s := range out.Reps {
		cases := float64(s.Cases)
		out.Values["cases_per_s"] = append(out.Values["cases_per_s"], ratio(cases, s.WallS))
		// Time to the campaign's verdict, scaled to the golden seed's
		// necessary work: a seed whose bugs sit earlier must not read as a
		// faster system. The scale is 1 wherever every unit is necessary.
		// dist-loopback's fixed tail is left out (it quantises the wall to
		// lease ticks); setup_s carries it.
		verdict := s.WallS * ratio(float64(g.NecessaryUnits), float64(s.Necessary))
		out.Values["detect_s"] = append(out.Values["detect_s"], verdict)
		out.Values["cpu_us_per_case"] = append(out.Values["cpu_us_per_case"], ratio(s.CPUS*1e6, cases))
		out.Values["allocs_per_case"] = append(out.Values["allocs_per_case"], ratio(float64(s.Mallocs), cases))
	}
	out.Values["peak_rss_mb"] = []float64{peakRSSMB()}
	out.Metrics = newMetricSet(endToEnd)
	for _, d := range endToEnd {
		out.Metrics.set(d.name, median(out.Values[d.name]))
	}
	return out, nil
}

// deadline bounds one workload run well inside the driver's 180 s limit, so
// a wedged campaign ends as an error instead of a kill.
const deadline = 170 * time.Second
