package executor

import (
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func nopFactory() uarch.Defense { return uarch.NopDefense{} }

// acquire returns an executor for cfg from a fresh one-executor pool.
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

func TestNewPoolRejectsBadConfig(t *testing.T) {
	cfg := testConfig(StrategyOpt, PrimeFill)
	if _, err := NewPool(cfg, nopFactory, 0); err == nil {
		t.Error("NewPool accepted size 0")
	}
	if _, err := NewPool(cfg, nil, 2); err == nil {
		t.Error("NewPool accepted a nil factory")
	}
}

// TestPooledMatchesBare: an executor from Acquire starts exactly as one
// from New does, so the two produce identical traces, and under Opt
// neither runs the boot workload.
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

	cfg := testConfig(StrategyOpt, PrimeFill)
	bare := New(cfg, nopFactory())
	pooled := acquire(t, cfg, nopFactory)

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

// TestPooledNaiveBootsPerInput pins the Naive semantics on an executor
// from Acquire: Naive models a fresh simulator process per input, so the
// executor simulates the boot workload on every start — that per-input
// cost is what the Naive columns of Tables 2 and 3 measure.
func TestPooledNaiveBootsPerInput(t *testing.T) {
	e := acquire(t, testConfig(StrategyNaive, PrimeFill), nopFactory)

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
