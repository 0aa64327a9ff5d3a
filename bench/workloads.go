package main

import (
	"fmt"
	"time"

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// benchWorkers is the worker count of every campaign the benchmark times:
// two engine workers, or two loopback dist workers. Never more goroutines
// simulate than that, so a 2-core box is not oversubscribed.
const benchWorkers = 2

// The paper's input shape: 8 base inputs x (1 + 5 mutants) = 48 per program.
const (
	baseInputs = 8
	mutants    = 5
)

// shape is a campaign's unit grid.
type shape struct{ instances, programs int }

// workload is one benchmark campaign. The names are fixed: later issues
// cite them. BENCHMARK.json and the README say why each one exists.
type workload struct {
	name       string
	defense    string
	full       shape
	smoke      shape
	seedOffset int64        // campaign seed = benchmark seed + seedOffset
	frontend   isa.Frontend // nil = toy
	corpus     bool         // StrategyCorpus, 4 epochs, coverage on
	checkpoint bool         // CheckpointDir set
	stopFirst  bool         // StopOnFirstViolation
	dist       bool         // via dist.Coordinator + 2 loopback workers
}

var workloads = []workload{
	{name: "sim-invisispec", defense: "invisispec",
		full: shape{4, 1000}, smoke: shape{2, 24}},
	{name: "model-stt", defense: "stt",
		full: shape{2, 150}, smoke: shape{1, 6}},
	{name: "corpus-wasm-ckpt", defense: "cleanupspec",
		full: shape{4, 1000}, smoke: shape{2, 80},
		frontend: wasm.Frontend, corpus: true, checkpoint: true},
	{name: "dist-loopback", defense: "invisispec",
		full: shape{4, 1000}, smoke: shape{2, 24}, dist: true},
	// Seed offset 6: benchmark seed 1 lands on campaign seed 7, the repo's
	// known-productive SpecLFB UV6 seed.
	{name: "detect-speclfb", defense: "speclfb",
		full: shape{16, 1000}, smoke: shape{16, 40},
		seedOffset: 6, stopFirst: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale selects the full benchmark or the sub-second smoke variant the
// package test runs under plain `go test ./...`.
type scale struct {
	name      string
	bootInsts int
	// setupSamples cold-start campaigns are timed in process; the
	// dist-loopback cold start costs a lease tick plus linger each, so it
	// gets distSetupSamples.
	setupSamples     int
	distSetupSamples int
	leaseTTL         time.Duration
	minReps          int
	probeEvery       int // the traced replica probes the layers on every n-th unit
}

var (
	fullScale = scale{name: "full", bootInsts: executor.DefaultBootInsts,
		setupSamples: 101, distSetupSamples: 3, leaseTTL: time.Second, minReps: 3, probeEvery: 10}
	smokeScale = scale{name: "smoke", bootInsts: 2000,
		setupSamples: 5, distSetupSamples: 1, leaseTTL: 100 * time.Millisecond, minReps: 2, probeEvery: 4}
)

func scaleByName(name string) (scale, error) {
	switch name {
	case fullScale.name:
		return fullScale, nil
	case smokeScale.name:
		return smokeScale, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (full or smoke)", name)
}

func (w workload) shape(sc scale) shape {
	if sc.name == smokeScale.name {
		return w.smoke
	}
	return w.full
}

// config builds the workload's campaign at the given benchmark seed. The
// checkpoint directory of a checkpointing workload is set per campaign by
// the caller (each campaign gets a fresh one).
func (w workload) config(sc scale, seed int64, workers int) (engine.Config, error) {
	spec, err := experiments.DefenseByName(w.defense)
	if err != nil {
		return engine.Config{}, err
	}
	sh := w.shape(sc)
	ccfg := experiments.CampaignConfig(spec, experiments.Scale{
		Instances: sh.instances, Programs: sh.programs,
		BaseInputs: baseInputs, Mutants: mutants,
		BootInsts: sc.bootInsts, Seed: seed + w.seedOffset,
	})
	ccfg.Base.Frontend = w.frontend
	ccfg.Base.StopOnFirstViolation = w.stopFirst
	cfg := engine.Config{Campaign: ccfg, Workers: workers}
	if w.corpus {
		cfg.Strategy = engine.StrategyCorpus
		cfg.Epochs = engine.DefaultEpochs
	}
	return cfg, nil
}

// coldStart shrinks cfg to the set-up campaign: one instance, one program,
// one input, no mutants, one worker — config, pool, boot + boot checkpoint,
// one unit, fold. Its wall is setup_s.
func coldStart(cfg engine.Config) engine.Config {
	cfg.Campaign.Instances = 1
	cfg.Campaign.Base.Programs = 1
	cfg.Campaign.Base.BaseInputs = 1
	cfg.Campaign.Base.MutantsPerInput = 0
	cfg.Workers = 1
	return cfg
}
