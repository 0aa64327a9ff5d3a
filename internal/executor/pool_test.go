package executor

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func poolConfig() Config {
	return Config{
		Core:      uarch.DefaultConfig(),
		Format:    FormatL1DTLB,
		Prime:     PrimeFill,
		Strategy:  StrategyOpt,
		BootInsts: 500,
	}
}

func nopFactory() uarch.Defense { return uarch.NopDefense{} }

// acquire returns a pooled executor for cfg from a fresh one-executor pool.
func acquire(t testing.TB, cfg Config, factory func() uarch.Defense) *Executor {
	t.Helper()
	p, err := NewPool(cfg, factory, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPoolAcquireRelease(t *testing.T) {
	p, err := NewPool(poolConfig(), nopFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed out the same executor twice")
	}
	// Pool exhausted: Acquire must block until a release or ctx death.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(short); err == nil {
		t.Fatal("Acquire on an exhausted pool returned without a release")
	}
	p.Release(a)
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("expected the released executor back")
	}
	p.Release(b)
	p.Release(c)
	if got := p.Metrics().BootRuns; got != 0 {
		t.Errorf("idle pool executors booted %d times", got)
	}
}

func TestNewPoolRejectsBadConfig(t *testing.T) {
	if _, err := NewPool(poolConfig(), nopFactory, 0); err == nil {
		t.Error("NewPool accepted size 0")
	}
	if _, err := NewPool(poolConfig(), nil, 2); err == nil {
		t.Error("NewPool accepted a nil factory")
	}
}

// TestPoolDiscard pins the poisoned-executor path: a discarded executor
// never re-enters circulation (even if Released afterwards), its slot is
// replaced by a fresh executor, and its metrics vanish from the pool sum.
func TestPoolDiscard(t *testing.T) {
	p, err := NewPool(poolConfig(), nopFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(a)
	p.Release(a) // late Release of a discarded executor must be a no-op
	b, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("pool handed back a discarded executor")
	}
	p.Release(b)
	if got := p.Metrics(); got != (b.Metrics()) {
		t.Errorf("pool metrics include a discarded executor: %+v", got)
	}
}

// TestPooledMatchesBare: a pooled executor starts exactly as a bare one
// does, so the two produce identical traces, and under Opt neither runs
// the boot workload.
func TestPooledMatchesBare(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 11
	g := generator.New(gcfg)
	sb := g.Sandbox()

	type testCase struct {
		prog   *isa.Program
		inputs []*isa.Input
	}
	var cases []testCase
	for p := 0; p < 5; p++ {
		tc := testCase{prog: g.Program()}
		for i := 0; i < 6; i++ {
			tc.inputs = append(tc.inputs, g.Input())
		}
		cases = append(cases, tc)
	}

	run := func(e *Executor) []*UTrace {
		var traces []*UTrace
		for _, tc := range cases {
			if err := e.LoadProgram(tc.prog, sb); err != nil {
				t.Fatal(err)
			}
			for _, in := range tc.inputs {
				tr, err := e.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				traces = append(traces, tr)
			}
		}
		return traces
	}

	bare := New(poolConfig(), nopFactory())
	pooled := acquire(t, poolConfig(), nopFactory)

	want := run(bare)
	got := run(pooled)
	if len(want) != len(got) {
		t.Fatalf("trace counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("trace %d differs between bare and pooled executors:\n%s",
				i, want[i].Diff(got[i]))
		}
	}
	for name, e := range map[string]*Executor{"bare": bare, "pooled": pooled} {
		if m := e.Metrics(); m.BootRuns != 0 || m.Starts != len(cases) {
			t.Errorf("%s Opt executor: %d boots, %d starts; want 0 boots and one start per program (%d)",
				name, m.BootRuns, m.Starts, len(cases))
		}
	}
}

// TestPooledNaiveBootsPerInput pins the Naive semantics: Naive models a
// fresh simulator process per input, so a pooled executor simulates the
// boot workload on every start — that per-input cost is what the Naive
// columns of Tables 2 and 3 measure.
func TestPooledNaiveBootsPerInput(t *testing.T) {
	cfg := poolConfig()
	cfg.Strategy = StrategyNaive
	e := acquire(t, cfg, nopFactory)

	gcfg := generator.DefaultConfig()
	gcfg.Seed = 7
	g := generator.New(gcfg)
	if err := e.LoadProgram(g.Program(), g.Sandbox()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Run(g.Input()); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.BootRuns != m.Starts || m.BootRuns != 3 {
		t.Errorf("pooled Naive: boots=%d starts=%d, want 3 boots (one per input)",
			m.BootRuns, m.Starts)
	}
}

// TestPoolWarmStartAllocs pins the memory cost of a campaign worker's first
// start: a new pool's executor and its first Opt LoadProgram allocate well
// under a megabyte, with no warm-up start before — no boot-sized
// instruction arena, no saved context.
func TestPoolWarmStartAllocs(t *testing.T) {
	cfg := poolConfig()
	cfg.BootInsts = DefaultBootInsts
	prog, sb, _, _ := genProgram(2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := acquire(t, cfg, nopFactory)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Acquire + first LoadProgram: %d bytes", got)
	if got >= budget {
		t.Errorf("Acquire + first LoadProgram allocated %d bytes, want < %d", got, budget)
	}
	if boots := e.Metrics().BootRuns; boots != 0 {
		t.Errorf("a pooled Opt executor booted %d times", boots)
	}
}
