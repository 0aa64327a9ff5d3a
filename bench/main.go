// Command amulet-bench is the repository's benchmark: five campaign
// workloads driven through the real entry points (engine.RunCampaign,
// dist.Coordinator + dist.Worker), six end-to-end metrics measured with
// tracing off, and a separate traced pass that times every layer a test
// case crosses from outside and closes the sum against the unit time.
// README.md in this directory defines every workload and metric;
// BENCHMARK.json at the repository root declares them to the driver.
//
// Usage (from the repository root; run.sh builds with the committed PGO
// profile and forwards its arguments):
//
//	bash bench/run.sh --workload sim-invisispec --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload dist-loopback --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -seed 1 -out bench/out/a.json    # every workload, each in a fresh child
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// header records where and how a result was taken; every result file and
// every workload record carries it.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	PGO        string `json:"pgo"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Workers    int    `json:"workers"`
	CkptFS     string `json:"ckpt_fs"`
	CkptRoot   string `json:"ckpt_root"`
}

func newHeader(e *env) header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		PGO:        "off",
		Commit:     "unknown",
		Seed:       e.seed,
		Scale:      e.sc.name,
		Workers:    benchWorkers,
		CkptFS:     fsName(e.ckptRoot),
		CkptRoot:   e.ckptRoot,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "-pgo":
				h.PGO = filepath.Base(s.Value)
			case "vcs.revision":
				h.Commit = s.Value
			}
		}
	}
	return h
}

// fsName names the filesystem holding dir (checkpoint fsyncs cost very
// differently on tmpfs and on disk, so the result says which it was).
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) & 0xffffffff {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint64(st.Type)&0xffffffff)
}

// resultLine is the last line of a single-workload run, in the driver's
// format.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process and print the driver's result line (default: every workload, each in a fresh child)")
		seed         = flag.Int64("seed", goldenSeed, "benchmark seed; the only workload argument")
		seconds      = flag.Float64("seconds", 10, "how long the timed reps of a workload measure")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer pass")
		scaleName    = flag.String("scale", fullScale.name, "full, or smoke (sub-second campaigns; the package test)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outPath      = flag.String("out", "", "all-workloads mode: also write the result file here")
		tmpRoot      = flag.String("tmp", ".bench_build/tmp", "directory for temporary checkpoint dirs (removed on exit)")
		traceDir     = flag.String("trace-dir", "bench/out", "directory the traced pass writes trace-<workload>.jsonl to")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout)
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}

	// SIGPIPE is caught so that a reader that closes the pipe early makes
	// the final write fail instead of killing the process before it has
	// removed its temporary directories.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	defer stop()

	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp(*tmpRoot, "amulet-bench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)
	e := &env{sc: sc, seed: *seed, seconds: *seconds, ckptRoot: root, traceDir: *traceDir}

	if *workloadName == "" {
		return runAll(ctx, e, *tmpRoot, *outPath)
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	var line resultLine
	var detail any
	if *traced == 0 {
		r, err := e.measure(ctx, w)
		if err != nil {
			return fail(err)
		}
		line = resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
		detail = r
	} else {
		r, err := e.traced(ctx, w)
		if err != nil {
			return fail(err)
		}
		line = resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
		detail = r
	}
	// Two lines: the detailed record (result files and -compare are built
	// from it), then the driver's result line, last.
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(detail); err != nil {
		return fail(err)
	}
	if err := enc.Encode(line); err != nil {
		return fail(err)
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "amulet-bench:", err)
	return 1
}
