package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/sith-lab/amulet-go/internal/analysis"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// Table4Result carries the rendered table plus the per-defense example
// violation reports (the material of the paper's Figures 4, 6, 8, 9 and
// Tables 7, 9, 10).
type Table4Result struct {
	Table   *Table
	Reports map[string]*analysis.Report // defense name -> first analyzed violation
}

// Table4 reproduces the paper's Table 4: the headline campaign over the
// baseline and the four countermeasures with their matching contracts.
// The five defense campaigns run concurrently, each on its own engine
// worker pool (the cores split between them), the way the paper runs its
// per-defense campaigns side by side on one server.
// Expected shape: every target violates its contract; CleanupSpec and
// SpecLFB campaigns are the fastest (clean-cache reset), InvisiSpec is
// slower (conflict-fill priming), and STT is the slowest by far (128-page
// sandbox, taint machinery) with the longest detection time.
func Table4(ctx context.Context, scale Scale) (*Table4Result, error) {
	out := &Table4Result{
		Table: &Table{
			Title: "Table 4: testing campaigns per defense",
			Header: []string{"Defense", "Contract", "Detected?", "Avg detection",
				"Unique violations", "Throughput (tests/s)", "Campaign time"},
		},
		Reports: map[string]*analysis.Report{},
	}
	specs := EvaluatedDefenses()
	total := scale.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	// Split the worker budget across the concurrent campaigns, handing the
	// remainder cores to the later (slower) specs — STT, last in the
	// paper's order, is the straggler by far.
	workersFor := func(si int) int {
		w := total / len(specs)
		if rem := total % len(specs); si >= len(specs)-rem {
			w++
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	type outcome struct {
		res    *fuzzer.CampaignResult
		unique int
		report *analysis.Report
		err    error
	}
	outcomes := make([]outcome, len(specs))
	var wg sync.WaitGroup
	for si, spec := range specs {
		wg.Add(1)
		go func(si int, spec DefenseSpec) {
			defer wg.Done()
			o := &outcomes[si]
			ccfg := CampaignConfig(spec, scale)
			o.res, o.err = engine.RunCampaign(ctx, engine.Config{Campaign: ccfg, Workers: workersFor(si)})
			if o.err != nil {
				return
			}
			o.unique, o.report, o.err = classifyViolations(spec, scale, o.res)
		}(si, spec)
	}
	wg.Wait()
	var errs []error
	for si, spec := range specs {
		o := outcomes[si]
		if o.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", spec.Name, o.err))
			continue
		}
		if o.report != nil {
			out.Reports[spec.Name] = o.report
		}
		detected := "NO"
		if o.res.DetectedViolation() {
			detected = "YES"
		}
		out.Table.Rows = append(out.Table.Rows, []string{
			spec.Name,
			spec.Contract.Name,
			detected,
			detTime(o.res),
			fmt.Sprintf("%d", o.unique),
			fmt.Sprintf("%.0f", o.res.Throughput()),
			fmtDuration(o.res.Elapsed),
		})
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	out.Table.Notes = append(out.Table.Notes,
		"paper shape: every defense violates its contract; CleanupSpec/SpecLFB fastest, STT slowest")
	return out, nil
}

// classifyViolations analyzes up to a handful of violations per defense
// and counts distinct signatures (the paper's unique-violation counting).
func classifyViolations(spec DefenseSpec, scale Scale, res *fuzzer.CampaignResult) (int, *analysis.Report, error) {
	if len(res.Violations) == 0 {
		return 0, nil, nil
	}
	cfg := CampaignConfig(spec, scale).Base
	exec := executor.New(cfg.Exec, spec.Factory())
	var reports []*analysis.Report
	const maxAnalyzed = 12
	for i, v := range res.Violations {
		if i >= maxAnalyzed {
			break
		}
		rep, err := analysis.Analyze(exec, v)
		if err != nil {
			return 0, nil, err
		}
		reports = append(reports, rep)
	}
	groups := analysis.Dedup(reports)
	return len(groups), reports[0], nil
}

// FigureReports renders the example-violation reports for the given
// defenses (paper Figures 4, 6, 8, 9).
func FigureReports(res *Table4Result, defenses ...string) string {
	if len(defenses) == 0 {
		for _, d := range EvaluatedDefenses() {
			defenses = append(defenses, d.Name)
		}
	}
	var b strings.Builder
	for _, name := range defenses {
		rep, ok := res.Reports[name]
		if !ok {
			fmt.Fprintf(&b, "--- %s: no violation found at this scale ---\n\n", name)
			continue
		}
		b.WriteString(rep.String())
		b.WriteString("\n")
	}
	return b.String()
}
