package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reports.golden from the current output")

// TestReportGolden pins the rendered text of three known violations byte for
// byte: an InvisiSpec speculative eviction, a CleanupSpec case on an
// invalidate-primed cache, and an InvisiSpec KV1 seen only in the L1I.
// Each entry is the full report on the campaign's own traces, then the trace
// diff of the replay's traces (the path a checkpoint-restored violation,
// which carries no traces, renders). The other analysis tests only look for
// substrings, so a change to how traces are stored or expanded could print
// wrong addresses unseen without this file. Regenerate it with
// `go test ./internal/analysis -run TestReportGolden -update` only when the
// rendering is meant to change.
func TestReportGolden(t *testing.T) {
	uv := baseConfig(2, 120)
	uv.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{}) }

	cleanup := baseConfig(1, 150)
	cleanup.Exec.Prime = executor.PrimeInvalidate
	cleanup.DefenseFactory = func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) }

	kv1 := baseConfig(12, 150)
	kv1.Exec.Format = executor.FormatL1DTLBL1I
	kv1.Exec.Core.Hier.MSHRs = 2
	kv1.DefenseFactory = func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }

	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  fuzzer.Config
	}{{"invisispec-uv", uv}, {"cleanupspec", cleanup}, {"invisispec-p-kv1", kv1}} {
		exec, v := findViolation(t, c.cfg)
		rep, err := analysis.Analyze(exec, v)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("##### " + c.name + "\n")
		b.WriteString(rep.String())

		replayed := *v
		replayed.TraceA, replayed.TraceB = nil, nil
		fresh := executor.New(c.cfg.Exec, c.cfg.DefenseFactory())
		if _, err := analysis.Analyze(fresh, &replayed); err != nil {
			t.Fatal(err)
		}
		b.WriteString("----- replayed trace diff, A vs B then B vs A\n")
		b.WriteString(replayed.TraceA.Diff(replayed.TraceB))
		b.WriteString(replayed.TraceB.Diff(replayed.TraceA))
	}
	got := b.String()

	path := filepath.Join("testdata", "reports.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
