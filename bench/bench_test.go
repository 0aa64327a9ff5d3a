package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const declPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkDeclaration holds BENCHMARK.json to the driver's limits and to
// the names this package prints: a metric or workload renamed on one side
// only would silently drop out of every later comparison.
func TestBenchmarkDeclaration(t *testing.T) {
	var decl benchmarkDecl
	if err := readJSON(declPath, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", decl.RunSeconds)
	}
	if len(decl.Command) == 0 || len(decl.Command) > 32 {
		t.Errorf("command has %d strings", len(decl.Command))
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(decl.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range decl.EndToEnd {
		checkName("end-to-end metric", d.Name)
		if d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the benchmark",
				i, d.Name, d.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range decl.PerLayer {
		checkName("per-layer metric", d.Name)
		if d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the benchmark",
				i, d.Name, d.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, the way
// the command does, and checks what it prints: the goldens hold, every
// declared metric is there and no other, the trace is written, dist-loopback
// reproduces sim-invisispec, and a result file compared with itself is
// unchanged on every row.
func TestSmoke(t *testing.T) {
	var decl benchmarkDecl
	if err := readJSON(declPath, &decl); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	e := &env{sc: smokeScale, seed: goldenSeed, seconds: 0, ckptRoot: tmp, traceDir: tmp}
	ctx := context.Background()

	sameNames := func(label string, got metricSet, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", label, len(got), len(want))
		}
		for _, name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: declared metric %s not printed", label, name)
			}
		}
	}
	var e2eNames, layerNames []string
	for _, d := range decl.EndToEnd {
		e2eNames = append(e2eNames, d.Name)
	}
	for _, d := range decl.PerLayer {
		layerNames = append(layerNames, d.Name)
	}

	rf := resultFile{Header: newHeader(e), Correct: true}
	for _, w := range workloads {
		r, err := e.measure(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		if len(r.Reps) != smokeScale.minReps {
			t.Errorf("%s: %d reps, want %d", w.name, len(r.Reps), smokeScale.minReps)
		}
		sameNames(w.name, r.Metrics, e2eNames)
		for name, mv := range r.Metrics {
			if mv.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, mv.Value)
			}
		}

		tr, err := e.traced(ctx, w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !tr.Correct || tr.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d problems=%v", w.name, tr.Correct, tr.Failed, tr.Problems)
		}
		sameNames(w.name+" traced", tr.Metrics, layerNames)
		for _, name := range []string{"fuzzer.unattributed_pct", "trace_overhead_pct", "engine.w2_speedup", "uarch.cycles_per_case"} {
			if tr.Metrics[name].Value == 0 {
				t.Errorf("%s traced: %s is 0", w.name, name)
			}
		}
		if n := countLines(t, tr.TraceFile); n != tr.Spans || n < tr.Attempted {
			t.Errorf("%s: trace file has %d spans, the pass recorded %d over %d units", w.name, n, tr.Spans, tr.Attempted)
		}
		rf.Workloads = append(rf.Workloads, workloadRecord{Name: w.name, EndToEnd: r, PerLayer: tr})
	}
	// Temporary checkpoint directories are gone after every campaign.
	if left, _ := filepath.Glob(filepath.Join(tmp, "ckpt-*")); len(left) != 0 {
		t.Errorf("checkpoint directories left behind: %v", left)
	}

	byName := map[string]workloadRecord{}
	for _, rec := range rf.Workloads {
		byName[rec.Name] = rec
	}
	if a, b := byName["dist-loopback"].EndToEnd.Reps[0], byName["sim-invisispec"].EndToEnd.Reps[0]; a.Fingerprint != b.Fingerprint || a.Cases != b.Cases {
		t.Errorf("dist-loopback output %s/%d, sim-invisispec %s/%d", a.Fingerprint, a.Cases, b.Fingerprint, b.Cases)
	}
	for _, name := range []string{"dist.overhead_pct", "dist.tail_s", "dist.rpcs_per_unit", "dist.submit_rtt_us_p50"} {
		if byName["dist-loopback"].PerLayer.Metrics[name].Value == 0 {
			t.Errorf("dist-loopback traced: %s is 0", name)
		}
	}
	for _, name := range []string{"checkpoint.share_pct", "checkpoint.bytes", "checkpoint.resume_s", "uarch.coverage_features"} {
		if byName["corpus-wasm-ckpt"].PerLayer.Metrics[name].Value == 0 {
			t.Errorf("corpus-wasm-ckpt traced: %s is 0", name)
		}
	}

	path := filepath.Join(tmp, "a.json")
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if code := compareFiles(path, path, declPath, &table); code != 0 {
		t.Errorf("-compare of a file with itself exited %d", code)
	}
	rows := 0
	for _, line := range strings.Split(table.String(), "\n") {
		if !strings.Contains(line, "%") {
			continue // header lines
		}
		rows++
		if !strings.HasSuffix(strings.TrimSpace(line), "unchanged") {
			t.Errorf("-compare of a file with itself: %s", line)
		}
	}
	if want := len(workloads) * len(endToEnd); rows != want {
		t.Errorf("-compare printed %d rows, want %d\n%s", rows, want, table.String())
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the driver's spread check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", tight, tight, true, "unchanged"},
		{"slower throughput", tight, []float64{80, 81, 79, 80, 80}, true, "worse"},
		{"faster throughput", tight, []float64{120, 121, 119, 120, 120}, true, "better"},
		{"lower latency", tight, []float64{80, 81, 79, 80, 80}, false, "better"},
		{"noisy overlap", tight, []float64{60, 140, 100, 70, 130}, true, "unresolved"},
		{"noisy but every rep beats", tight, []float64{150, 300, 200, 160, 280}, true, "better"},
		{"no samples", tight, nil, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, 0.10, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
