package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkDecl is the part of BENCHMARK.json the benchmark itself reads:
// names, units, directions and regression bounds.
type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict classifies metric values b against a. bound is the share of a's
// median the metric may worsen by; higher says which direction is better.
//
//   - unchanged, when a and b are the same samples;
//   - unresolved: either file's own reps spread (interquartile distance over
//     median) wider than the bound, unless every rep of one file beats every
//     rep of the other;
//   - worse / better: the median moved by more than the bound;
//   - unchanged: otherwise.
func verdict(a, b []float64, bound float64, higher bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	if slices.Equal(a, b) {
		return "unchanged" // the same samples: a file compared with itself
	}
	// sign turns "b is better" into a positive change for either direction.
	sign := 1.0
	if !higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change := sign * ratio(mb-ma, ma)
	if spread(a) > bound || spread(b) > bound {
		switch {
		case allBeat(b, a, sign):
			return "better"
		case allBeat(a, b, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case change < -bound:
		return "worse"
	case change > bound:
		return "better"
	}
	return "unchanged"
}

// allBeat reports whether every value of x is strictly better than every
// value of y (sign +1: higher is better).
func allBeat(x, y []float64, sign float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if sign*(xv-yv) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) of result
// files a and b with both medians, quartiles, the change and its verdict
// against the bound BENCHMARK.json fixes. It returns 1 when any row is
// worse, 0 otherwise.
func compareFiles(aPath, bPath, declPath string, w io.Writer) int {
	var decl benchmarkDecl
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{declPath, &decl}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return fail(err)
		}
	}
	bRecs := map[string]*e2eResult{}
	for _, rec := range b.Workloads {
		bRecs[rec.Name] = rec.EndToEnd
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  pgo %s  %s\n", aPath, a.Header.Commit, a.Header.Seed, a.Header.PGO, a.Header.GoVersion)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  pgo %s  %s\n", bPath, b.Header.Commit, b.Header.Seed, b.Header.PGO, b.Header.GoVersion)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tb median [q1, q3] n\tchange\tbound\tverdict")
	worse := false
	for _, rec := range a.Workloads {
		other := bRecs[rec.Name]
		for _, d := range decl.EndToEnd {
			var av, bv []float64
			if rec.EndToEnd != nil {
				av = rec.EndToEnd.Values[d.Name]
			}
			if other != nil {
				bv = other.Values[d.Name]
			}
			v := verdict(av, bv, d.Bound, d.Better == "higher")
			worse = worse || v == "worse"
			cell := func(vs []float64) string {
				q1, q3 := quartiles(vs)
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(vs), q1, q3, len(vs))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", rec.Name, d.Name, d.Unit,
				cell(av), cell(bv), 100*ratio(median(bv)-median(av), median(av)), 100*d.Bound, v)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}
