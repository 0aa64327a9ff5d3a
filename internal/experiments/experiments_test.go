package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// tinyScale keeps experiment tests fast; the benchmarks and cmd/amulet run
// the real QuickScale/PaperScale budgets.
func tinyScale() Scale {
	return Scale{Instances: 2, Programs: 60, BaseInputs: 6, Mutants: 4, BootInsts: 1000, Seed: 1}
}

func TestDefenseRegistry(t *testing.T) {
	if len(EvaluatedDefenses()) != 5 {
		t.Fatalf("expected 5 evaluated defenses")
	}
	for _, name := range DefenseNames() {
		spec, err := DefenseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Factory == nil || spec.Contract.Name == "" {
			t.Errorf("incomplete spec %q", name)
		}
		d := spec.Factory()
		if d == nil {
			t.Errorf("factory %q returned nil", name)
		}
	}
	if _, err := DefenseByName("nonsense"); err == nil {
		t.Errorf("unknown defense accepted")
	}
}

func TestCampaignConfigMatchesSpec(t *testing.T) {
	spec, err := DefenseByName("stt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig(spec, tinyScale())
	if cfg.Base.Gen.Pages != 128 {
		t.Errorf("STT sandbox pages = %d, want 128", cfg.Base.Gen.Pages)
	}
	if cfg.Base.Contract.Name != "ARCH-SEQ" {
		t.Errorf("STT contract = %s", cfg.Base.Contract.Name)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "Demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note text"},
	}
	s := tb.String()
	for _, want := range []string{"Demo", "a", "1", "note: note text"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tb, err := Table2(context.Background(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	// Shape: startup dominates Naive, which boots on every input, and Opt —
	// whose start is a reset, with no boot — spends a smaller share on it.
	// Rows 0..6 are the components (startup first), each cell "<time>
	// (<share of the column's total>%)".
	if len(tb.Rows) != 9 || tb.Rows[0][0] != "simulator startup" {
		t.Fatalf("unexpected table layout: %v", tb.Rows)
	}
	share := func(row, col int) float64 {
		cell := tb.Rows[row][col]
		i, j := strings.LastIndex(cell, "("), strings.LastIndex(cell, "%)")
		if i < 0 || j < i {
			t.Fatalf("row %d col %d: no share in %q", row, col, cell)
		}
		v, err := strconv.ParseFloat(cell[i+1:j], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	const naive, opt = 1, 2
	for row := 1; row < 7; row++ {
		if share(row, naive) >= share(0, naive) {
			t.Errorf("Naive: %q (%.1f%%) is not below simulator startup (%.1f%%)",
				tb.Rows[row][0], share(row, naive), share(0, naive))
		}
	}
	if share(0, opt) >= share(0, naive) {
		t.Errorf("Opt's startup share %.1f%% is not below Naive's %.1f%%", share(0, opt), share(0, naive))
	}
}

// cycleCounter wraps the baseline defense and counts every simulated
// cycle, boot runs included. Its OnTick is never idle, so the core's
// quiescent-span skip — bit-identical by construction — elides none of them.
type cycleCounter struct {
	uarch.NopDefense
	n *atomic.Int64
}

func (c cycleCounter) OnTick()        { c.n.Add(1) }
func (c cycleCounter) TickIdle() bool { return false }

// TestTable3Shape asserts Table 3's shape on deterministic proxies instead
// of wall time: a Naive start boots and an Opt start does not; Naive
// simulates more cycles per test case, the per-input boot that makes it
// slower; and at the same seed CT-SEQ finds more violations per instance
// than CT-COND, whose contract allows the Spectre-v1 leaks CT-SEQ flags.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	type cell struct {
		res    *fuzzer.CampaignResult
		cycles int64
	}
	run := func(c contract.Contract, strategy executor.Strategy) cell {
		ccfg, err := table3Config(tinyScale(), c, strategy)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		ccfg.Base.DefenseFactory = func() uarch.Defense { return cycleCounter{n: &n} }
		res, err := engine.RunCampaign(context.Background(), engine.Config{Campaign: ccfg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cell{res, n.Load()}
	}
	perInstance := map[string]float64{}
	for _, c := range []contract.Contract{contract.CTSeq, contract.CTCond} {
		naive, opt := run(c, executor.StrategyNaive), run(c, executor.StrategyOpt)
		nm, om := naive.res.Totals().Metrics, opt.res.Totals().Metrics
		if nm.Starts == 0 || nm.BootRuns != nm.Starts {
			t.Errorf("%s Naive: %d boots for %d starts, want one per start", c.Name, nm.BootRuns, nm.Starts)
		}
		if om.BootRuns != 0 {
			t.Errorf("%s Opt: %d boots, want none", c.Name, om.BootRuns)
		}
		nc := float64(naive.cycles) / float64(naive.res.TestCases)
		oc := float64(opt.cycles) / float64(opt.res.TestCases)
		t.Logf("%s: cycles per case Naive %.0f, Opt %.0f; violations Naive %d, Opt %d",
			c.Name, nc, oc, len(naive.res.Violations), len(opt.res.Violations))
		if nc <= oc {
			t.Errorf("%s: Naive simulates %.0f cycles per case, Opt %.0f; want Naive more", c.Name, nc, oc)
		}
		perInstance[c.Name] = float64(len(opt.res.Violations)) / float64(len(opt.res.Instances))
	}
	if perInstance["CT-SEQ"] <= perInstance["CT-COND"] {
		t.Errorf("violations per instance: CT-SEQ %.1f, CT-COND %.1f; want CT-SEQ more",
			perInstance["CT-SEQ"], perInstance["CT-COND"])
	}
}

// TestTable5Shape asserts Table 5's shape on violation sets by coordinates
// (the "fraction of total" column), never on throughput: memory-access
// order catches every violation any format catches, and the baseline
// L1D+TLB format catches at least 70 % of them, more than the BP-state and
// branch-order formats. "BP state and branch order are largely subsumed by
// the baseline format" is shape only at this scale: both catch nothing here
// (seeds 1–3), and at QuickScale seed 1 BP state's one violation was one the
// baseline format missed, so the test does not assert it. In place of the
// paper's speed ranking, which wall time cannot reproduce, it pins why:
// every format simulates the same inputs — the test cases less the three
// that each validation re-run adds.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	runs, err := table5Campaigns(context.Background(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tb := table5(runs)
	t.Logf("\n%s", tb)
	base := runs[executor.FormatL1DTLB].Totals()
	inputs := base.TestCases - 3*base.ValidationRuns
	for f, res := range runs {
		tot := res.Totals()
		if n := tot.TestCases - 3*tot.ValidationRuns; n != inputs {
			t.Errorf("%s simulated %d inputs (%d test cases, %d validation re-runs), %s %d",
				f, n, tot.TestCases, tot.ValidationRuns, executor.FormatL1DTLB, inputs)
		}
	}
	frac := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatalf("%s: no violation fraction in %q (no format found a violation?)", row[0], row[2])
		}
		frac[row[0]] = v
	}
	l1d, bp := frac[executor.FormatL1DTLB.String()], frac[executor.FormatBPState.String()]
	mo, br := frac[executor.FormatMemOrder.String()], frac[executor.FormatBranchOrder.String()]
	if mo != 100 {
		t.Errorf("memory-access order catches %.1f%% of the union, want 100%%", mo)
	}
	if l1d < 70 || l1d <= bp || l1d <= br {
		t.Errorf("L1D+TLB catches %.1f%%, want ≥ 70%% and more than BP state (%.1f%%) and branch order (%.1f%%)", l1d, bp, br)
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	// Seed 5 is a known seed (under the counter-based stream) whose campaign
	// hits the UV2 interference pattern within 200 programs; random seeds
	// need the paper-scale budget (UV2 appears roughly once per ~20k test
	// cases at this configuration).
	sc := tinyScale()
	sc.Seed = 5
	sc.Instances = 2
	sc.Programs = 200
	sc.BaseInputs = 8
	sc.Mutants = 5
	tb, err := Table6(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	if got := tb.Rows[0][2]; got != "NO" {
		t.Errorf("default config should be clean, got %q", got)
	}
	if got := tb.Rows[2][2]; !strings.HasPrefix(got, "YES") {
		t.Errorf("2-MSHR config should violate (UV2), got %q", got)
	}
}

func TestTable8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	sc := tinyScale()
	sc.Instances = 2
	tb, err := Table8(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	// The paper's matrix: UV3 disappears with the patch, UV4/UV5 remain.
	if tb.Rows[0][1] != "YES" || tb.Rows[0][2] != "no" {
		t.Errorf("UV3 row wrong: %v", tb.Rows[0])
	}
	if tb.Rows[1][1] != "YES" || tb.Rows[1][2] != "YES" {
		t.Errorf("UV4 row wrong: %v", tb.Rows[1])
	}
	if tb.Rows[2][1] != "YES" || tb.Rows[2][2] != "YES" {
		t.Errorf("UV5 row wrong: %v", tb.Rows[2])
	}
}

func TestTable11Counts(t *testing.T) {
	tb, err := Table11()
	if err != nil {
		t.Skipf("source tree unavailable: %v", err)
	}
	t.Logf("\n%s", tb)
	if len(tb.Rows) != 6 {
		t.Errorf("expected 6 rows, got %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[1] == "0" {
			t.Errorf("component %q has zero lines", r[0])
		}
	}
}

// TestStrategyComparisonCorpusNeverWorse is the acceptance gate of the
// coverage-guided strategy: on the bundled defense set, with identical
// seeds and budgets, the corpus strategy confirms at least as many
// violations per executed case as blind random generation — and strictly
// more in aggregate. Campaigns are fully deterministic for a fixed seed, so
// this is a stable regression canary for the feedback loop: if a change to
// the coverage signal, the mutators or the epoch schedule degrades the
// strategy, this test is where it shows up.
func TestStrategyComparisonCorpusNeverWorse(t *testing.T) {
	sc := tinyScale()
	sc.Seed = 4
	res, err := StrategyComparison(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(EvaluatedDefenses()) {
		t.Fatalf("head-to-head covered %d defenses, want the bundled set (%d)",
			len(res.Rows), len(EvaluatedDefenses()))
	}
	randTotal, corpusTotal := 0, 0
	for _, row := range res.Rows {
		if row.RandomCases == 0 || row.CorpusCases == 0 {
			t.Fatalf("%s: empty campaign (rand=%d corpus=%d cases)",
				row.Defense, row.RandomCases, row.CorpusCases)
		}
		if row.CorpusRate() < row.RandomRate() {
			t.Errorf("%s: corpus strategy is worse: %.4f vs %.4f violations/case",
				row.Defense, row.CorpusRate(), row.RandomRate())
		}
		randTotal += row.RandomViolations
		corpusTotal += row.CorpusViolations
	}
	if corpusTotal <= randTotal {
		t.Errorf("corpus found %d violations in aggregate, random %d; the feedback loop earns nothing",
			corpusTotal, randTotal)
	}
	s := res.Table.String()
	for _, want := range []string{"Defense", "Rand v/1k", "Corpus v/1k", "baseline", "stt"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}
