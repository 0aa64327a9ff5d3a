// Command amulet runs AMuLeT-Go testing campaigns against secure
// speculation countermeasures and regenerates the paper's evaluation
// tables.
//
// Usage:
//
//	amulet -defense speclfb -programs 200 -instances 4 -report
//	amulet -defense stt -workers 8 -timeout 5m
//	amulet -defense invisispec -strategy corpus -epochs 4
//	amulet -defense baseline -isa wasm
//	amulet -experiment table4
//	amulet -experiment isa
//	amulet -experiment table6 -scale paper
//	amulet -experiment strategy
//	amulet -list
//
// Without -experiment, amulet runs one campaign against the selected
// defense and prints a summary (and, with -report, the analyzed violation
// reports in the style of the paper's figures).
//
// Campaigns are scheduled by the program-level engine: -workers sets the
// worker-pool size (0 = all cores) and -timeout bounds the run. SIGINT,
// SIGTERM, -timeout or a failing work unit never discard a campaign: the
// partial results collected so far are always reported (experiments, whose
// tables need the full campaign, abort instead).
//
// With -checkpoint <dir> the campaign is crash-safe: progress is persisted
// atomically at epoch boundaries and on interruption, worker panics are
// quarantined into repro bundles under <dir>/quarantine/ instead of killing
// the run, and -resume continues an interrupted campaign to the exact
// results an uninterrupted one produces. Partial runs exit with status 3
// and print a one-line resume hint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	_ "github.com/sith-lab/amulet-go/internal/isa/wasm" // register the stack frontend
)

// exitPartial is the exit status of a run that finished with partial
// results — interrupted (SIGINT/SIGTERM/-timeout) or carrying degraded
// (quarantined / timed-out) units — as opposed to 1 for real failures.
// Scripts distinguish "rerun with -resume" from "something broke".
const exitPartial = 3

func main() {
	cf := experiments.AddCampaignFlags(flag.CommandLine)
	var (
		ways       = flag.Int("l1d-ways", 0, "override L1D associativity (leakage amplification)")
		mshrs      = flag.Int("mshrs", 0, "override MSHR count (leakage amplification)")
		pages      = flag.Int("pages", 0, "override sandbox pages")
		naive      = flag.Bool("naive", false, "use the Naive strategy (restart per input)")
		format     = flag.String("format", "", "µarch trace format: l1d-tlb, l1d-tlb-l1i, bp-state, mem-order, branch-order")
		report     = flag.Bool("report", false, "analyze and print violation reports (paper-figure style)")
		minimize   = flag.Bool("minimize", false, "with -report: also minimize each violation to its gadget")
		experiment = flag.String("experiment", "", "regenerate a paper table: table2, table3, table4, table5, table6, table8, table11, figures; 'compare' for the extended defense comparison; 'strategy' for the coverage-vs-random head-to-head; 'isa' for the frontends-by-defenses comparison")
		scaleName  = flag.String("scale", "quick", "experiment scale: quick or paper")
		list       = flag.Bool("list", false, "list available defenses and exit")
		workers    = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS); the violation set is identical for every value")
		timeout    = flag.Duration("timeout", 0, "abort the campaign/experiment after this duration, reporting partial results (0 = no limit)")
		strategy   = flag.String("strategy", engine.StrategyRandom, "generation strategy: random (blind, the paper's setup) or corpus (coverage-guided epochs)")
		epochs     = flag.Int("epochs", 0, "corpus-strategy epochs (0 = default); each epoch mutates the corpus frozen by the previous one")
		ckptDir    = flag.String("checkpoint", "", "checkpoint directory: persist campaign progress there (atomically) and quarantine failing units' repro bundles")
		resume     = flag.Bool("resume", false, "resume the campaign from -checkpoint; a resumed campaign finishes with results bit-identical to an uninterrupted run")
		unitTO     = flag.Duration("unit-timeout", 0, "per-unit watchdog deadline: a wedged work unit is abandoned and counted instead of hanging the campaign (0 = off)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// Profiling hooks: campaigns are the hot-path workload, so regressions
	// in the simulation loop are diagnosed by profiling a real run instead
	// of editing code. The stop/write happens on every normal return path
	// (including the partial-result exit) via the deferred flush.
	exitCode := 0
	memProfilePath = *memprofile
	if memProfilePath != "" {
		// Go samples one allocation per 512 KB by default, so the counts of
		// small per-case objects would be scaled-up estimates. A fine rate
		// makes -sample_index=alloc_objects close to a count; it costs only
		// when the flag is given.
		runtime.MemProfileRate = 4096
	}
	defer func() {
		flushProfiles()
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfileFile = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		fmt.Println("available defense configurations:")
		for _, d := range experiments.AllDefenses() {
			fmt.Printf("  %-22s contract=%-9s prime=%-10s sandbox=%d page(s)\n",
				d.Name, d.Contract.Name, d.Prime, d.Pages)
		}
		return
	}

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint <dir>"))
	}

	if *experiment != "" {
		// Experiments pin their strategies (the table reproductions pin
		// random, the strategy head-to-head runs both); silently ignoring
		// these flags would misreport what was measured.
		if *strategy != engine.StrategyRandom || *epochs != 0 {
			fatal(fmt.Errorf("-strategy/-epochs do not apply to -experiment runs (experiments pin their strategies)"))
		}
		if *cf.ISA != isa.ToyName {
			fatal(fmt.Errorf("-isa does not apply to -experiment runs (the table reproductions pin the toy frontend; 'isa' compares all frontends)"))
		}
		// Experiments need whole campaigns for their tables; a partially
		// restored table would misreport the paper's numbers.
		if *ckptDir != "" || *resume {
			fatal(fmt.Errorf("-checkpoint/-resume do not apply to -experiment runs"))
		}
		if err := runExperiment(ctx, *experiment, *scaleName, *workers); err != nil {
			fatal(err)
		}
		return
	}

	ecfg, err := cf.EngineConfig()
	if err != nil {
		fatal(err)
	}
	base := &ecfg.Campaign.Base
	if *ways > 0 {
		base.Exec.Core.Hier.L1D.Ways = *ways
	}
	if *mshrs > 0 {
		base.Exec.Core.Hier.MSHRs = *mshrs
	}
	if *pages > 0 {
		base.Gen.Pages = *pages
	}
	if *naive {
		base.Exec.Strategy = executor.StrategyNaive
	}
	if *format != "" {
		f, err := parseFormat(*format)
		if err != nil {
			fatal(err)
		}
		base.Exec.Format = f
	}
	ecfg.Workers, ecfg.Strategy, ecfg.Epochs = *workers, *strategy, *epochs
	ecfg.CheckpointDir, ecfg.Resume, ecfg.UnitTimeout = *ckptDir, *resume, *unitTO

	fmt.Printf("testing %s against %s: %d instance(s) x %d program(s) x %d input(s), strategy=%s, isa=%s\n",
		*cf.Defense, base.Contract.Name, ecfg.Campaign.Instances, base.Programs,
		base.BaseInputs*(1+base.MutantsPerInput), *strategy, base.Frontend.Name())
	res, err := engine.RunCampaign(ctx, ecfg)
	partial := false
	if err != nil {
		if res == nil {
			fatal(err)
		}
		// Cancellation and unit failures alike: report what was collected.
		fmt.Printf("campaign incomplete (%v); partial results:\n", err)
		if hasNonContextError(err) {
			exitCode = 1 // real failure: partial output, failing exit code
		} else {
			partial = true // interrupted, not broken: distinct resumable status
		}
	}
	printSummary(res)
	if tot := res.Totals(); tot.Metrics.Quarantined > 0 || tot.Metrics.TimedOut > 0 {
		partial = true // degraded units: the violation set may be incomplete
	}
	if partial && exitCode == 0 {
		exitCode = exitPartial
		if *ckptDir != "" {
			fmt.Printf("resumable: rerun with -resume to continue from %s\n",
				filepath.Join(*ckptDir, checkpoint.FileName))
		}
	}

	if *report && len(res.Violations) > 0 {
		exec := executor.New(base.Exec, base.DefenseFactory())
		max := 3
		for i, v := range res.Violations {
			if i >= max {
				fmt.Printf("... (%d more violations)\n", len(res.Violations)-max)
				break
			}
			rep, err := analysis.Analyze(exec, v)
			if err != nil {
				fatal(err)
			}
			fmt.Println(rep)
			if *minimize {
				min, removed, err := analysis.Minimize(exec, base.Contract, v)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("minimized gadget (%d of %d instructions removed):\n%s\n",
					removed, v.Program.Len(), analysis.Compact(min.Program))
			}
		}
	}
}

// printSummary renders the standard campaign summary (shared with
// cmd/amulet-coordinator via experiments.WriteSummary).
func printSummary(res *fuzzer.CampaignResult) {
	experiments.WriteSummary(os.Stdout, res)
}

func runExperiment(ctx context.Context, name, scaleName string, workers int) error {
	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (quick or paper)", scaleName)
	}
	scale.Workers = workers
	switch name {
	case "table2":
		t, err := experiments.Table2(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "table3":
		t, err := experiments.Table3(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "table4":
		r, err := experiments.Table4(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(r.Table)
	case "figures":
		r, err := experiments.Table4(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(r.Table)
		fmt.Println(experiments.FigureReports(r))
	case "table5":
		t, err := experiments.Table5(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "table6":
		t, err := experiments.Table6(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "table8":
		t, err := experiments.Table8(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "table11":
		t, err := experiments.Table11()
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "compare":
		t, err := experiments.DefenseComparison(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "strategy":
		r, err := experiments.StrategyComparison(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(r.Table)
	case "isa":
		t, err := experiments.ISAComparison(ctx, scale)
		if err != nil {
			return err
		}
		fmt.Println(t)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func parseFormat(s string) (executor.TraceFormat, error) {
	switch s {
	case "l1d-tlb":
		return executor.FormatL1DTLB, nil
	case "l1d-tlb-l1i":
		return executor.FormatL1DTLBL1I, nil
	case "bp-state":
		return executor.FormatBPState, nil
	case "mem-order":
		return executor.FormatMemOrder, nil
	case "branch-order":
		return executor.FormatBranchOrder, nil
	}
	return 0, fmt.Errorf("unknown trace format %q", s)
}

// hasNonContextError reports whether the (possibly joined) error contains
// anything beyond cancellation/deadline — i.e. a failure the exit code
// must reflect even when a timeout fired alongside it.
func hasNonContextError(err error) bool {
	if err == nil {
		return false
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if hasNonContextError(e) {
				return true
			}
		}
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// cpuProfileFile is the open -cpuprofile destination, nil when disabled;
// memProfilePath is the -memprofile destination, empty when disabled.
var (
	cpuProfileFile *os.File
	memProfilePath string
)

// flushProfiles stops the CPU profile and writes the heap profile. It runs
// deferred from main and from fatal, so both profiles land on every exit
// path — including error exits, where a profile of the aborted run is
// exactly what the flags exist to capture.
func flushProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		memProfilePath = ""
		if err != nil {
			fmt.Fprintln(os.Stderr, "amulet: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "amulet: memprofile:", err)
		}
	}
}

func fatal(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "amulet:", err)
	os.Exit(1)
}
