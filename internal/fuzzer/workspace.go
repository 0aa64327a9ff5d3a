package fuzzer

import (
	"context"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Workspace owns everything the generate → collect → execute stages build
// for one program and throw away afterwards, and recycles it from program to
// program: the generator and mutator streams (reseeded per unit), the
// leakage model (re-targeted per program), the slab the inputs are carved
// from, the program case with its classes and their input lists, the
// contract-trace pool and ExecuteCase's trace and encoding scratch. What
// outlives a program is allocated fresh — the program itself, the unit's
// Result, and a violation's copies — so a campaign's steady state allocates
// only that.
//
// A workspace belongs to one goroutine at a time, like the executor it runs
// beside: every engine worker and distributed UnitRunner owns one for its
// lifetime. When a unit poisons its worker's executor (a panic
// mid-pipeline, or a wedged goroutine the watchdog abandoned, which may
// still be writing to both), the workspace is replaced with it.
type Workspace struct {
	cfg   Config // the current unit's configuration, defaults resolved
	gen   *generator.Generator
	mut   *generator.Mutator
	model *contract.Model // nil until the first case of the current contract
	slab  isa.Slab
	tp    *contract.TracePool

	pc      ProgramCase
	classes []InputClass           // storage behind pc.Classes, one per base input
	byTrace map[uint64]*InputClass // contract-trace hash → class of the current case
	traces  []*executor.UTrace     // ExecuteCase's per-class trace scratch
	enc     []byte                 // ExecuteCase's scratch for a violation's inputs
}

// NewWorkspace returns an empty workspace; Reset prepares it for a unit.
func NewWorkspace() *Workspace {
	return &Workspace{tp: &contract.TracePool{}, byTrace: make(map[uint64]*InputClass)}
}

// Reset prepares the workspace for a work unit of cfg's campaign whose
// streams are seeded with seed: the generator and mutator come back in
// exactly the state generator.NewFor and generator.NewMutator build for it
// (Draws zero, legacy stream included). Storage is kept; only a change of
// the generator configuration, frontend or contract rebuilds the part that
// depends on it.
func (w *Workspace) Reset(cfg Config, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	if w.gen == nil || cfg.Gen != w.cfg.Gen || cfg.Frontend != w.cfg.Frontend {
		genCfg := cfg.Gen
		genCfg.Seed = seed
		w.gen = generator.NewFor(genCfg, cfg.Frontend)
	} else {
		w.gen.Reseed(seed)
	}
	// Registers are free to vary unless the contract observes them all.
	mutateRegs := !cfg.Contract.ObserveInitRegs
	if w.mut == nil || mutateRegs != w.mut.MutateRegs || cfg.Gen.LegacyRand != w.cfg.Gen.LegacyRand {
		w.mut = generator.NewMutator(seed^mutatorSeedMix, mutateRegs, cfg.Gen.LegacyRand)
	} else {
		w.mut.Reseed(seed ^ mutatorSeedMix)
	}
	if cfg.Contract != w.cfg.Contract {
		w.model = nil
	}
	w.cfg = cfg
	return nil
}

// Draws returns the combined draw count of the generation and mutation
// PRNG streams since the last Reset. Campaign checkpoints record it per
// completed work unit as a determinism diagnostic: a resumed campaign that
// replays a unit must land on the same count, or the unit did not do the
// same work.
func (w *Workspace) Draws() uint64 { return w.gen.Draws() + w.mut.Draws() }

// Case runs the generate + collect stages for program pIdx, drawing from
// the workspace's streams through the generation strategy (nil: Random).
// Only the streams, the strategy's frozen corpus and the contract decide the
// outcome — never the µarch execution — so the generation side of a
// campaign is deterministic in isolation.
//
// The case, its inputs and its class lists are the workspace's: they are
// valid until the next Case, which recycles them. Retain only the program
// (Source, Prog) beyond that; ExecuteCase copies out what a violation
// keeps.
func (w *Workspace) Case(ctx context.Context, strat generator.Strategy, pIdx int) (*ProgramCase, error) {
	if strat == nil {
		strat = generator.Random{}
	}
	cfg := w.cfg
	w.recycleTraces()
	pc := &w.pc
	*pc = ProgramCase{Index: pIdx, Classes: pc.Classes[:0], ws: w}
	t0 := time.Now()
	pc.Source = strat.NewProgram(w.gen)
	pc.Prog = w.gen.Frontend().Lower(pc.Source)
	pc.SB = w.gen.Sandbox()
	pc.GenTime += time.Since(t0)
	if w.model == nil {
		w.model = contract.NewModel(cfg.Contract, pc.Prog, pc.SB)
	} else {
		w.model.Load(pc.Prog, pc.SB)
	}
	// The program's inputs, their page tables and the pages mutants
	// materialize are carved from the slab, which hands the previous
	// program's storage out again.
	w.slab.Reset(pc.SB, cfg.BaseInputs*(1+cfg.MutantsPerInput))
	if len(w.classes) < cfg.BaseInputs {
		w.classes = make([]InputClass, cfg.BaseInputs)
	}
	clear(w.byTrace)

	tp := w.tp
	for b := 0; b < cfg.BaseInputs; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		base := w.gen.InputIn(&w.slab)
		pc.GenTime += time.Since(t0)
		t1 := time.Now()
		ctrace, usage := w.model.CollectInto(base, tp.Get())
		h := ctrace.Hash()
		cls, ok := w.byTrace[h]
		if !ok {
			cls = &w.classes[len(pc.Classes)]
			*cls = InputClass{CTrace: ctrace, Inputs: cls.Inputs[:0]}
			w.byTrace[h] = cls
			pc.Classes = append(pc.Classes, cls)
		}
		cls.Inputs = append(cls.Inputs, base)
		for m := 0; m < cfg.MutantsPerInput; m++ {
			mutant, ok := w.mut.MutateIn(&w.slab, base, usage)
			if !ok {
				pc.RejectedMutants++
				continue
			}
			cls.Inputs = append(cls.Inputs, mutant)
		}
		if ok {
			// Duplicate of an existing class: the hash above was the
			// buffer's last reader, so it goes back to the pool.
			tp.Put(ctrace)
		}
		pc.ModelTime += time.Since(t1)
	}
	pc.Truncations = w.model.Truncated()
	return pc, nil
}

// recycleTraces returns the current case's class traces to the pool.
// ExecuteCase calls it once the classes are compared; Case calls it again
// for a case that was never executed (its unit cut short), and it is a
// no-op for classes already recycled.
func (w *Workspace) recycleTraces() {
	for _, cls := range w.pc.Classes {
		if cls.CTrace != nil {
			w.tp.Put(cls.CTrace)
		}
		cls.CTrace = nil
	}
}

// UnitGen is the generation side of one program-level work unit in a
// workspace of its own: a one-shot Workspace, reset for the unit's seed and
// bound to a strategy. Every unit gets an independent stream derived from
// the campaign seed (see UnitSeed), so cases can be built in any order on
// any worker and still produce a deterministic campaign. Campaign workers
// reuse one Workspace across units instead.
type UnitGen struct {
	ws    *Workspace
	strat generator.Strategy
}

// NewUnitGenStrategy builds the generation state for one work unit with an
// explicit strategy. Corpus strategies must be frozen (read-only) for the
// unit's whole epoch; the engine guarantees this.
func NewUnitGenStrategy(cfg Config, seed int64, strat generator.Strategy) (*UnitGen, error) {
	ws := NewWorkspace()
	if err := ws.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return &UnitGen{ws: ws, strat: strat}, nil
}

// SetTracePool makes the unit collect contract traces into tp's buffers
// instead of its workspace's own pool, so a caller that builds a UnitGen per
// unit can still recycle trace buffers across all of them.
func (u *UnitGen) SetTracePool(tp *contract.TracePool) { u.ws.tp = tp }

// Case runs the generate + collect stages for program pIdx.
func (u *UnitGen) Case(ctx context.Context, pIdx int) (*ProgramCase, error) {
	return u.ws.Case(ctx, u.strat, pIdx)
}
