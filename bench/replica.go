package main

import (
	"context"
	"fmt"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// replica is the bench's own serial copy of the engine's work unit, built
// only from public calls — UnitSeed/InstanceSeed → NewUnitGenStrategy →
// UnitGen.Case → Pool.Acquire → ExecuteCase — with a span around each call
// and counts taken at the same boundaries. On every probeEvery-th unit it
// additionally times the layer functions directly on that unit's own
// program and inputs, on a second executor so the replica's own executor
// metrics stay those of the plain pipeline.
type replica struct {
	tr    *tracer
	base  fuzzer.Config
	strat generator.Strategy
	every int

	exec  *executor.Executor
	probe *executor.Executor
	tp    *contract.TracePool

	// Counts taken at the unit boundaries, over every unit.
	units, cases                     int
	uops, classes, truncations       int
	rejected, validations, violCount int
	coverage                         *uarch.Coverage
	unitMS                           []float64

	p probeSums
}

// probeSums accumulates the direct layer timings of the probed units.
type probeSums struct {
	progs                         int
	generate, lower, newModel     time.Duration
	inputs                        int
	input                         time.Duration
	mutateCalls                   int
	mutate                        time.Duration
	collects, obs                 int
	collect                       time.Duration
	cases                         int
	prime, run, snapshot, execRun time.Duration
	stats                         uarch.Stats
	boot                          time.Duration
	loads                         int
	load                          time.Duration
	saveRestores                  int
	saveRestore                   time.Duration
	valPairs                      int
	valPair                       time.Duration
	l1dBuf, tlbBuf                []uint64
	ctBuf                         contract.Trace
	state                         uarch.UarchState
	probeTotal                    time.Duration
	probeFailure                  error
}

// replicaOut is what one replica pass produced.
type replicaOut struct {
	res  *fuzzer.CampaignResult
	wall time.Duration // pass wall minus the probes
}

// newReplica builds the replica for cfg's campaign. Like the engine, it
// turns coverage collection on under the corpus strategy.
func newReplica(ctx context.Context, cfg engine.Config, strat generator.Strategy, every int) (*replica, error) {
	base := cfg.Campaign.Base
	if cfg.Strategy == engine.StrategyCorpus {
		base.Exec.Coverage = true
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	r := &replica{tr: newTracer(), base: base, strat: strat, every: every, tp: &contract.TracePool{}}
	if base.Exec.Coverage {
		r.coverage = uarch.NewCoverage()
	}
	for _, dst := range []**executor.Executor{&r.exec, &r.probe} {
		pool, err := executor.NewPool(base.Exec, base.DefenseFactory, 1)
		if err != nil {
			return nil, err
		}
		if *dst, err = pool.Acquire(ctx); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// run executes every unit of the campaign serially, in (instance, program)
// order; under stop-on-first an instance ends at its first violating
// program, which is exactly the engine's deterministic cut.
func (r *replica) run(ctx context.Context, instances int) (*replicaOut, error) {
	root := r.tr.begin("pass", 0, -1)
	out := &fuzzer.CampaignResult{Instances: make([]*fuzzer.Result, instances)}
	for i := 0; i < instances; i++ {
		instSeed := fuzzer.InstanceSeed(r.base.Seed, i)
		inst := &fuzzer.Result{}
		out.Instances[i] = inst
		for p := 0; p < r.base.Programs; p++ {
			found, err := r.unit(ctx, root, fuzzer.UnitSeed(instSeed, p), p, inst)
			if err != nil {
				return nil, fmt.Errorf("replica unit (%d,%d): %w", i, p, err)
			}
			if found && r.base.StopOnFirstViolation {
				break
			}
		}
	}
	wall := r.tr.end(root)
	out.Elapsed = wall
	out.Aggregate()
	if r.p.probeFailure != nil {
		return nil, r.p.probeFailure
	}
	return &replicaOut{res: out, wall: wall - r.p.probeTotal}, nil
}

// unit is one traced work unit.
func (r *replica) unit(ctx context.Context, root int32, seed int64, p int, inst *fuzzer.Result) (bool, error) {
	tr, ord := r.tr, r.units
	us := tr.begin("unit", root, ord)
	before := r.exec.Metrics()
	res := &fuzzer.Result{}

	s := tr.begin("fuzzer.unitgen", us, ord)
	ug, err := fuzzer.NewUnitGenStrategy(r.base, seed, r.strat)
	if err != nil {
		return false, err
	}
	ug.SetTracePool(r.tp)
	tr.end(s)

	s = tr.begin("fuzzer.case", us, ord)
	pc, err := ug.Case(ctx, p)
	if err != nil {
		return false, err
	}
	tr.end(s)
	tr.synthetic(s, ord, []namedDur{{"generator", pc.GenTime}, {"contract", pc.ModelTime}})

	s = tr.begin("fuzzer.execute_case", us, ord)
	found, err := fuzzer.ExecuteCase(ctx, r.exec, r.base, pc, res, tr.t0)
	if err != nil {
		return false, err
	}
	tr.end(s)
	d := r.exec.Metrics().Minus(before)
	tr.synthetic(s, ord, []namedDur{
		{"executor.startup", d.Startup}, {"mem.prime", d.Prime}, {"uarch.simulate", d.Simulate},
		{"executor.extract", d.TraceExtract}, {"executor.digest", d.Digest}})
	r.unitMS = append(r.unitMS, float64(tr.end(us))/1e6)

	r.units++
	r.cases += res.TestCases
	r.uops += pc.Prog.Len()
	r.classes += len(pc.Classes)
	r.truncations += pc.Truncations
	r.rejected += pc.RejectedMutants
	r.validations += res.ValidationRuns
	r.violCount += len(res.Violations)
	if r.coverage != nil && res.Coverage != nil {
		r.coverage.Merge(res.Coverage)
	}
	inst.Merge(res)

	if ord%r.every == 0 {
		s = tr.begin("probe", root, ord)
		if err := r.probeUnit(seed, pc); err != nil && r.p.probeFailure == nil {
			r.p.probeFailure = fmt.Errorf("probe of unit %d: %w", ord, err)
		}
		r.p.probeTotal += tr.end(s)
	}
	return found, nil
}

// since returns the time elapsed since *t and resets *t to now, so a
// sequence of layer calls is timed back to back.
func since(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// probeUnit times the layer functions directly, on the unit's own program
// and inputs. The generation side is replayed from the unit seed: the
// generator stream yields the program and then the base inputs, the same
// draws buildCase made (mutants come from a separate stream).
func (r *replica) probeUnit(seed int64, pc *fuzzer.ProgramCase) error {
	ps := &r.p
	fe := r.base.ResolvedFrontend()
	genCfg := r.base.Gen
	genCfg.Seed = seed
	g := generator.NewFor(genCfg, fe)

	t := time.Now()
	src := r.strat.NewProgram(g)
	ps.generate += since(&t)
	prog := fe.Lower(src)
	ps.lower += since(&t)
	ps.progs++
	if prog.Len() != pc.Prog.Len() {
		return fmt.Errorf("replayed program has %d uops, the unit's %d", prog.Len(), pc.Prog.Len())
	}

	bases := make([]*isa.Input, r.base.BaseInputs)
	t = time.Now()
	for i := range bases {
		bases[i] = g.Input()
	}
	ps.input += since(&t)
	ps.inputs += len(bases)

	model := contract.NewModel(r.base.Contract, pc.Prog, pc.SB)
	ps.newModel += since(&t)
	mut := generator.NewMutator(seed, !r.base.Contract.ObserveInitRegs, r.base.Gen.LegacyRand)
	for _, in := range bases {
		t = time.Now()
		ct, usage := model.CollectInto(in, ps.ctBuf)
		ps.collect += since(&t)
		ps.ctBuf = ct
		ps.collects++
		ps.obs += len(ct)
		for m := 0; m < r.base.MutantsPerInput; m++ {
			mut.Mutate(model, in, usage, ct)
		}
		ps.mutate += since(&t)
		ps.mutateCalls += r.base.MutantsPerInput
	}

	// Simulation side, layer by layer: prime, reset + run, snapshot.
	ex := r.probe
	t = time.Now()
	if err := ex.LoadProgram(pc.Prog, pc.SB); err != nil {
		return err
	}
	if d := since(&t); ps.boot == 0 {
		ps.boot = d // the first start simulates the boot workload
	} else {
		ps.load += d
		ps.loads++
	}
	core := ex.Core()
	hier := core.Hier
	for _, cls := range pc.Classes {
		for _, in := range cls.Inputs {
			t = time.Now()
			primeHierarchy(hier, r.base.Exec)
			ps.prime += since(&t)
			core.ResetForInput(in)
			if err := core.Run(); err != nil {
				return err
			}
			ps.run += since(&t)
			ps.l1dBuf = hier.L1D.SnapshotInto(ps.l1dBuf[:0])
			ps.tlbBuf = hier.DTLB.SnapshotInto(ps.tlbBuf[:0])
			ps.snapshot += since(&t)
			st := core.Stats()
			ps.stats.Cycles += st.Cycles
			ps.stats.Committed += st.Committed
			ps.stats.Squashed += st.Squashed
			ps.stats.Mispredicts += st.Mispredicts
			ps.stats.L1DAccesses += st.L1DAccesses
			ps.stats.L1DMisses += st.L1DMisses
			ps.cases++
		}
	}

	t = time.Now()
	core.SaveUarchInto(&ps.state)
	core.RestoreUarch(&ps.state)
	ps.saveRestore += since(&t)
	ps.saveRestores++

	// Executor level: the same inputs through Executor.Run, from a fresh
	// post-boot context, and one validation replay.
	t = time.Now()
	if err := ex.LoadProgram(pc.Prog, pc.SB); err != nil {
		return err
	}
	ps.load += since(&t)
	ps.loads++
	for _, cls := range pc.Classes {
		for _, in := range cls.Inputs {
			ut, err := ex.Run(in)
			if err != nil {
				return err
			}
			ex.ReleaseTrace(ut)
		}
	}
	ps.execRun += since(&t)
	if first := pc.Classes[0].Inputs; len(first) >= 2 {
		t = time.Now()
		a, b, err := ex.RunValidationPair(first[0], first[1])
		if err != nil {
			return err
		}
		ps.valPair += since(&t)
		ps.valPairs++
		ex.ReleaseTrace(a)
		ex.ReleaseTrace(b)
	}
	return nil
}

// primeHierarchy resets the memory system ahead of a case exactly as the
// executor's private prime step does for cfg.
func primeHierarchy(h *mem.Hierarchy, cfg executor.Config) {
	switch cfg.Prime {
	case executor.PrimeFill:
		if cfg.Format == executor.FormatL1DTLBL1I {
			h.InvalidateL1I(!cfg.FullPrime)
		}
		h.PrimeL1D(!cfg.FullPrime)
	case executor.PrimeInvalidate:
		h.PrimeInvalidate(!cfg.FullPrime)
	}
}

// fill writes the replica's layer metrics into m.
func (r *replica) fill(m metricSet) {
	ps := &r.p
	ns := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	units, cases := float64(r.units), float64(r.cases)

	m.set("isa.generate_ns_per_prog", ns(ps.generate, ps.progs))
	m.set("isa.lower_ns_per_prog", ns(ps.lower, ps.progs))
	m.set("isa.uops_per_prog", ratio(float64(r.uops), units))

	m.set("generator.input_ns_per_input", ns(ps.input, ps.inputs))
	m.set("generator.mutate_ns_per_mutant", ns(ps.mutate, ps.mutateCalls))
	m.set("generator.reject_ratio", ratio(float64(r.rejected), units*float64(r.base.BaseInputs*r.base.MutantsPerInput)))

	m.set("contract.newmodel_ns_per_prog", ns(ps.newModel, ps.progs))
	m.set("contract.collect_ns_per_input", ns(ps.collect, ps.collects))
	m.set("contract.obs_per_trace", ratio(float64(ps.obs), float64(ps.collects)))
	m.set("contract.classes_per_prog", ratio(float64(r.classes), units))
	m.set("contract.truncations", float64(r.truncations))

	m.set("mem.prime_ns_per_case", ns(ps.prime, ps.cases))
	m.set("mem.snapshot_ns_per_case", ns(ps.snapshot, ps.cases))
	m.set("mem.l1d_miss_ratio", ratio(float64(ps.stats.L1DMisses), float64(ps.stats.L1DAccesses)))

	pc := float64(ps.cases)
	m.set("uarch.run_ns_per_case", ns(ps.run, ps.cases))
	m.set("uarch.cycles_per_case", ratio(float64(ps.stats.Cycles), pc))
	m.set("uarch.host_ns_per_cycle", ratio(float64(ps.run.Nanoseconds()), float64(ps.stats.Cycles)))
	m.set("uarch.committed_per_case", ratio(float64(ps.stats.Committed), pc))
	m.set("uarch.squashed_per_case", ratio(float64(ps.stats.Squashed), pc))
	m.set("uarch.mispredicts_per_case", ratio(float64(ps.stats.Mispredicts), pc))
	m.set("uarch.save_restore_ns", ns(ps.saveRestore, ps.saveRestores))
	if r.coverage != nil {
		m.set("uarch.coverage_features", float64(r.coverage.Count()))
	}

	m.set("executor.boot_ns", float64(ps.boot.Nanoseconds()))
	m.set("executor.load_program_ns_per_prog", ns(ps.load, ps.loads))
	m.set("executor.run_ns_per_case", ns(ps.execRun, ps.cases))
	m.set("executor.validation_pair_ns", ns(ps.valPair, ps.valPairs))
	em := r.exec.Metrics()
	total := float64(em.Startup + em.Prime + em.Simulate + em.TraceExtract + em.Digest)
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), total) }
	m.set("executor.startup_share_pct", pct(em.Startup))
	m.set("executor.prime_share_pct", pct(em.Prime))
	m.set("executor.simulate_share_pct", pct(em.Simulate))
	m.set("executor.extract_share_pct", pct(em.TraceExtract))
	m.set("executor.digest_share_pct", pct(em.Digest))

	// Span sums: what each call cost, and what the calls' reported
	// children leave unexplained.
	byName := map[string]time.Duration{}
	var attributed time.Duration
	for i := range r.tr.spans {
		s := &r.tr.spans[i]
		byName[s.Name] += s.dur()
		if s.Synthetic {
			attributed += s.dur()
		}
	}
	m.set("fuzzer.case_ns_per_prog", ns(byName["fuzzer.case"], r.units))
	m.set("fuzzer.execute_case_ns_per_prog", ns(byName["fuzzer.execute_case"], r.units))
	execChildren := byName["executor.startup"] + byName["mem.prime"] + byName["uarch.simulate"] +
		byName["executor.extract"] + byName["executor.digest"]
	m.set("fuzzer.compare_self_ns_per_case", ns(byName["fuzzer.execute_case"]-execChildren, r.cases))
	m.set("fuzzer.validation_runs_per_kcase", 1000*ratio(float64(r.validations), cases))
	m.set("fuzzer.violations_per_kcase", 1000*ratio(float64(r.violCount), cases))
	m.set("fuzzer.unattributed_pct", 100*ratio(float64(byName["unit"]-attributed), float64(byName["unit"])))
}
