package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// workloadRecord is one workload's share of a result file: the untraced
// end-to-end record and the traced per-layer record.
type workloadRecord struct {
	Name     string        `json:"name"`
	EndToEnd *e2eResult    `json:"end_to_end"`
	PerLayer *tracedResult `json:"per_layer"`
}

// resultFile is what the all-workloads mode prints and -compare reads.
type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadRecord `json:"workloads"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
}

// runAll runs every workload, each in a fresh child process of this binary
// (so peak RSS and heap state are per workload), first untraced and then —
// after that child has exited, so the end-to-end numbers never see tracing
// — traced. It prints the result file and exits non-zero on any
// correctness failure.
func runAll(ctx context.Context, e *env, tmpRoot, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	rf := resultFile{Header: newHeader(e), Correct: true}
	for _, w := range workloads {
		rec := workloadRecord{Name: w.name, EndToEnd: &e2eResult{}, PerLayer: &tracedResult{}}
		for _, pass := range []struct {
			trace  int
			detail any
		}{{0, rec.EndToEnd}, {1, rec.PerLayer}} {
			fmt.Fprintf(os.Stderr, "amulet-bench: %s (trace %d)\n", w.name, pass.trace)
			if err := runChild(ctx, exe, e, tmpRoot, w.name, pass.trace, pass.detail); err != nil {
				rf.Correct = false
				rf.Problems = append(rf.Problems, fmt.Sprintf("%s (trace %d): %v", w.name, pass.trace, err))
			}
		}
		if !rec.EndToEnd.Correct || !rec.PerLayer.Correct {
			rf.Correct = false
		}
		rf.Workloads = append(rf.Workloads, rec)
	}

	// dist-loopback prices distribution against the identical
	// single-process campaign: same work, same fingerprint.
	fps := map[string]string{}
	for _, rec := range rf.Workloads {
		if len(rec.EndToEnd.Reps) > 0 {
			fps[rec.Name] = rec.EndToEnd.Reps[0].Fingerprint
		}
	}
	if a, b := fps["dist-loopback"], fps["sim-invisispec"]; a != b {
		rf.Correct = false
		rf.Problems = append(rf.Problems, fmt.Sprintf("dist-loopback fingerprint %s differs from sim-invisispec %s", a, b))
	}

	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if outPath != "" {
		if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return fail(err)
		}
	}
	os.Stdout.Write(data) //nolint:errcheck
	if !rf.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload pass in a child process and decodes the
// detailed record (the first of its two output lines) into detail.
func runChild(ctx context.Context, exe string, e *env, tmpRoot, workload string, trace int, detail any) error {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-scale", e.sc.name,
		"-tmp", tmpRoot)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	if !sc.Scan() {
		if runErr != nil {
			return runErr
		}
		return fmt.Errorf("child printed no result")
	}
	if err := json.Unmarshal(sc.Bytes(), detail); err != nil {
		return fmt.Errorf("child result: %w", err)
	}
	// A non-zero exit with a decoded record is a correctness failure the
	// record itself describes (correct=false, problems).
	return nil
}
