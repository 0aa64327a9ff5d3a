package fuzzer

import (
	"context"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// quickConfig returns a small campaign configuration against the baseline.
func quickConfig(seed int64, programs int) Config {
	return Config{
		Contract: contract.CTSeq,
		Gen:      generator.DefaultConfig(),
		Exec: executor.Config{
			Core:      uarch.DefaultConfig(),
			Format:    executor.FormatL1DTLB,
			Prime:     executor.PrimeFill,
			Strategy:  executor.StrategyOpt,
			BootInsts: 500,
		},
		DefenseFactory:  func() uarch.Defense { return uarch.NopDefense{} },
		Seed:            seed,
		Programs:        programs,
		BaseInputs:      5,
		MutantsPerInput: 4,
	}
}

// QuickConfig is quickConfig for the engine-driven campaign tests of package
// fuzzer_test.
var QuickConfig = quickConfig

// pooledExecutor returns a campaign-style executor for cfg: one from an
// executor pool, as every campaign worker uses.
func pooledExecutor(t testing.TB, cfg Config) *executor.Executor {
	t.Helper()
	pool, err := executor.NewPool(cfg.Exec, cfg.DefenseFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e
}
