// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the AMuLeT-Go stack. Each TableN function runs the
// corresponding testing campaign(s) through engine.RunCampaign and renders
// a table in the paper's layout; cmd/amulet exposes them on the command line
// and this package's benchmarks (bench_test.go) time them.
//
// Campaign sizes are scaled: the paper's full campaigns (100 parallel
// instances x 200 programs x 140 inputs, ~80 hours of server time) shrink
// to laptop-sized budgets by default. Absolute numbers therefore differ
// from the paper; the shapes — who leaks, who is faster, where
// amplification matters — are what these experiments reproduce. Pass
// PaperScale to approach the paper's budgets.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/defense/baseline"
	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Scale sets campaign budgets.
type Scale struct {
	Instances  int // parallel AMuLeT instances
	Programs   int // test programs per instance
	BaseInputs int // base inputs per program
	Mutants    int // contract-preserving mutants per base input
	BootInsts  int // simulated SE-mode startup workload length
	Seed       int64
	Workers    int // engine worker-pool size; 0 = GOMAXPROCS
}

// QuickScale returns a laptop-scale budget (seconds per campaign). The
// 8x(1+5) input shape keeps 48 inputs per program, enough contract-
// equivalent pairs per program for the rarer findings (e.g. SpecLFB's UV6)
// to surface within ~100 programs.
func QuickScale() Scale {
	return Scale{Instances: 4, Programs: 100, BaseInputs: 8, Mutants: 5, BootInsts: 2000, Seed: 1}
}

// PaperScale returns the paper's campaign shape (100 instances x 200
// programs x 140 inputs). Running every experiment at this scale takes
// hours, as the paper's artifact does.
func PaperScale() Scale {
	return Scale{Instances: 100, Programs: 200, BaseInputs: 20, Mutants: 6, BootInsts: executor.DefaultBootInsts, Seed: 1}
}

// InputsPerProgram returns the test-case count per program.
func (s Scale) InputsPerProgram() int { return s.BaseInputs * (1 + s.Mutants) }

// DefenseSpec describes one target configuration exactly as §4.1 tests it:
// which contract it is tested against, how caches reset between tests, and
// the sandbox size.
type DefenseSpec struct {
	Name     string
	Factory  func() uarch.Defense
	Contract contract.Contract
	Prime    executor.PrimeMode
	Pages    int
}

// DefenseByName returns the named defense configuration.
func DefenseByName(name string) (DefenseSpec, error) {
	for _, d := range AllDefenses() {
		if d.Name == name {
			return d, nil
		}
	}
	return DefenseSpec{}, fmt.Errorf("experiments: unknown defense %q (try one of %s)",
		name, strings.Join(DefenseNames(), ", "))
}

// EvaluatedDefenses returns the five targets of the paper's Table 4, in
// its order.
func EvaluatedDefenses() []DefenseSpec {
	all := AllDefenses()
	out := make([]DefenseSpec, 0, 5)
	for _, name := range []string{"baseline", "invisispec", "cleanupspec", "speclfb", "stt"} {
		for _, d := range all {
			if d.Name == name {
				out = append(out, d)
			}
		}
	}
	return out
}

// AllDefenses returns every testable configuration, including the patched
// variants used by the paper's follow-up campaigns.
func AllDefenses() []DefenseSpec {
	return []DefenseSpec{
		{Name: "baseline", Factory: baseline.New,
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
		{Name: "invisispec", Factory: func() uarch.Defense { return invisispec.New(invisispec.Config{}) },
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
		{Name: "invisispec-patched", Factory: func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) },
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
		{Name: "cleanupspec", Factory: func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) },
			Contract: contract.CTSeq, Prime: executor.PrimeInvalidate, Pages: 1},
		{Name: "cleanupspec-patched", Factory: func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{PatchUV3: true}) },
			Contract: contract.CTSeq, Prime: executor.PrimeInvalidate, Pages: 1},
		{Name: "speclfb", Factory: func() uarch.Defense { return speclfb.New(speclfb.Config{}) },
			Contract: contract.CTSeq, Prime: executor.PrimeInvalidate, Pages: 1},
		{Name: "speclfb-patched", Factory: func() uarch.Defense { return speclfb.New(speclfb.Config{PatchUV6: true}) },
			Contract: contract.CTSeq, Prime: executor.PrimeInvalidate, Pages: 1},
		{Name: "stt", Factory: func() uarch.Defense { return stt.New(stt.Config{}) },
			Contract: contract.ArchSeq, Prime: executor.PrimeFill, Pages: 128},
		{Name: "stt-patched", Factory: func() uarch.Defense { return stt.New(stt.Config{PatchKV3: true}) },
			Contract: contract.ArchSeq, Prime: executor.PrimeFill, Pages: 128},
		// Additional countermeasures beyond the paper's four targets:
		// Delay-on-Miss (the scheme SpecLFB refines), a GhostMinion-style
		// strictness-ordered design (the paper's suggested fix for UV2),
		// and the conservative fence-everything control.
		{Name: "delayonmiss", Factory: func() uarch.Defense { return delayonmiss.New() },
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
		{Name: "ghostminion", Factory: func() uarch.Defense { return ghostminion.New() },
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
		{Name: "fenceall", Factory: func() uarch.Defense { return fenceall.New() },
			Contract: contract.CTSeq, Prime: executor.PrimeFill, Pages: 1},
	}
}

// DefenseNames lists the available configuration names.
func DefenseNames() []string {
	all := AllDefenses()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.Name
	}
	return names
}

// CampaignConfig assembles the fuzzer configuration for one defense at one
// scale. Callers may mutate the result before running.
func CampaignConfig(spec DefenseSpec, scale Scale) fuzzer.CampaignConfig {
	gen := generator.DefaultConfig()
	gen.Pages = spec.Pages
	return fuzzer.CampaignConfig{
		Instances: scale.Instances,
		Base: fuzzer.Config{
			Contract: spec.Contract,
			Gen:      gen,
			Exec: executor.Config{
				Core:      uarch.DefaultConfig(),
				Format:    executor.FormatL1DTLB,
				Prime:     spec.Prime,
				Strategy:  executor.StrategyOpt,
				BootInsts: scale.BootInsts,
			},
			DefenseFactory:  spec.Factory,
			Seed:            scale.Seed,
			Programs:        scale.Programs,
			BaseInputs:      scale.BaseInputs,
			MutantsPerInput: scale.Mutants,
		},
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtDuration renders durations compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Second:
		return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.1f s", d.Seconds())
	default:
		return fmt.Sprintf("%.1f min", d.Minutes())
	}
}

// fmtPct renders a share of a total.
func fmtPct(part, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}
