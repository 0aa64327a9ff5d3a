package contract_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// contracts are the paper's three contracts, the ones every model test runs.
var contracts = []contract.Contract{contract.CTSeq, contract.CTCond, contract.ArchSeq}

// benchModels builds reusable models over random programs.
func benchModels(tb testing.TB, c contract.Contract) ([]*contract.Model, []*isa.Input) {
	tb.Helper()
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 42
	g := generator.New(gcfg)
	sb := g.Sandbox()
	var models []*contract.Model
	var ins []*isa.Input
	for i := 0; i < 8; i++ {
		models = append(models, contract.NewModel(c, g.Program(), sb))
		ins = append(ins, g.Input())
	}
	return models, ins
}

// TestModelSteadyStateAllocs pins the leakage model's zero-alloc invariant:
// after warm-up — trace buffer and the emulator's checkpoint stack and store
// journal all sized — collecting a contract trace allocates nothing. CT-COND
// exercises the nested checkpoints, ARCH-SEQ the densest observation set.
func TestModelSteadyStateAllocs(t *testing.T) {
	for _, c := range contracts {
		t.Run(c.Name, func(t *testing.T) {
			models, ins := benchModels(t, c)
			var buf contract.Trace
			run := func() {
				for i, md := range models {
					buf, _ = md.CollectInto(ins[i], buf)
				}
			}
			for i := 0; i < 5; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
				t.Errorf("CollectInto allocates %v objects per run in steady state, want 0", allocs)
			}
		})
	}
}

// BenchmarkModelCollect measures the leakage model's per-input cost: one
// collection, trace and usage summary, into a recycled trace buffer.
func BenchmarkModelCollect(b *testing.B) {
	for _, c := range contracts {
		b.Run(c.Name, func(b *testing.B) {
			models, ins := benchModels(b, c)
			var buf contract.Trace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = models[i%len(models)].CollectInto(ins[i%len(ins)], buf)
			}
		})
	}
}
