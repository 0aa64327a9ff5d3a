package fuzzer

import (
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

// workerExecutor returns an executor for cfg built as every campaign
// worker builds its own.
func workerExecutor(cfg Config) *executor.Executor {
	return executor.New(cfg.Exec, cfg.DefenseFactory())
}
