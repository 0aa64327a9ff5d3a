package fuzzer

import (
	"context"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// steadyStateCase builds a non-violating program case: every memory access
// uses a fixed address, so all inputs are contract-equivalent under CT-SEQ
// and produce identical µarch traces. ExecuteCase on it exercises the full
// prime → reset → simulate → extract → compare loop without ever entering
// the (retaining) violation path — the steady state of a campaign.
func steadyStateCase(t testing.TB) (Config, *executor.Executor, *ProgramCase) {
	t.Helper()
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(0, 0),
		isa.Load(1, 0, 0, 8),
		isa.ALUImm(isa.OpAdd, 2, 1, 1),
		isa.Store(0, 64, 2, 8),
		isa.Load(3, 0, 128, 4),
		isa.ALU(isa.OpXor, 4, 3, 2),
	}}
	cfg := Config{
		Contract:       contract.CTSeq,
		Gen:            generator.DefaultConfig(),
		Exec:           executor.Config{Core: uarch.DefaultConfig(), BootInsts: 200},
		DefenseFactory: func() uarch.Defense { return uarch.NopDefense{} },
		Seed:           1,
		Programs:       1,
		BaseInputs:     1,
	}
	model := contract.NewModel(cfg.Contract, prog, sb)
	cls := &InputClass{}
	for i := 0; i < 4; i++ {
		in := isa.NewInput(sb)
		for k := 0; k < int(sb.Size()); k++ {
			in.Mem.SetByte(uint64(k), byte(i*(k+3)))
		}
		tr, _ := model.Collect(in)
		if i == 0 {
			cls.CTrace = tr
		} else if !tr.Equal(cls.CTrace) {
			t.Fatalf("steady-state inputs are not contract-equivalent")
		}
		cls.Inputs = append(cls.Inputs, in)
	}
	pc := &ProgramCase{Prog: prog, SB: sb, Classes: []*InputClass{cls}}
	return cfg, workerExecutor(cfg), pc
}

// TestExecuteCaseSteadyStateAllocs pins the per-program allocation budget of
// the execute→compare loop. After warm-up (arena chunks, trace freelist,
// fill-queue buffers, snapshot-merge scratch and the incremental prime's
// replay list all sized), one ExecuteCase — priming, resetting and
// simulating four inputs and comparing their traces — may allocate only the
// per-class trace-scratch slice. Anything above the pinned budget means an
// allocation crept back into the simulation hot path; the dirty-set prime
// tracking in particular must stay allocation-free (see also
// mem.TestPrimeIncrementalAllocFree).
func TestExecuteCaseSteadyStateAllocs(t *testing.T) {
	// Every cache-trace shape: the fill prime's delta over the template,
	// the invalidate prime's over an empty base, and the L1I section.
	for _, v := range []struct {
		format executor.TraceFormat
		prime  executor.PrimeMode
	}{
		{executor.FormatL1DTLB, executor.PrimeFill},
		{executor.FormatL1DTLB, executor.PrimeInvalidate},
		{executor.FormatL1DTLBL1I, executor.PrimeFill},
	} {
		cfg, _, pc := steadyStateCase(t)
		cfg.Exec.Format, cfg.Exec.Prime = v.format, v.prime
		exec := workerExecutor(cfg)
		ctx := context.Background()
		res := &Result{}
		start := time.Now()
		run := func() {
			found, err := ExecuteCase(ctx, exec, cfg, pc, res, start)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				t.Fatal("steady-state case must not violate")
			}
		}
		for i := 0; i < 3; i++ {
			run() // warm executor arenas, prime templates, trace freelist
		}
		allocs := testing.AllocsPerRun(20, run)
		// One slice for the class trace scratch, plus the violations-slice
		// growth headroom AllocsPerRun can observe on unlucky GC timing.
		const budget = 3
		if allocs > budget {
			t.Errorf("%v/prime %d: ExecuteCase allocates %v objects per program in steady state, want <= %d",
				v.format, v.prime, allocs, budget)
		}
	}
}

// TestValidationPairSteadyStateAllocs pins the validation replay path: the
// checkpoint (caches, TLB, predictors) and both replay traces are recycled,
// so repeated validations allocate (almost) nothing.
func TestValidationPairSteadyStateAllocs(t *testing.T) {
	cfg, exec, pc := steadyStateCase(t)
	if err := exec.LoadProgram(pc.Prog, pc.SB); err != nil {
		t.Fatal(err)
	}
	_ = cfg
	a, b := pc.Classes[0].Inputs[0], pc.Classes[0].Inputs[1]
	run := func() {
		trA, trB, err := exec.RunValidationPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !trA.Equal(trB) {
			t.Fatal("steady-state validation pair must not differ")
		}
		exec.ReleaseTrace(trA)
		exec.ReleaseTrace(trB)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	const budget = 1
	if allocs > budget {
		t.Errorf("RunValidationPair allocates %v objects per validation in steady state, want <= %d", allocs, budget)
	}
}

// TestReleasedTracesAreRecycled: a released trace is reused by the next
// run instead of a fresh allocation, and carries no stale content.
func TestReleasedTracesAreRecycled(t *testing.T) {
	_, exec, pc := steadyStateCase(t)
	if err := exec.LoadProgram(pc.Prog, pc.SB); err != nil {
		t.Fatal(err)
	}
	tr1, err := exec.Run(pc.Classes[0].Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := tr1.Clone() // a released trace must no longer be read
	exec.ReleaseTrace(tr1)
	tr2, err := exec.Run(pc.Classes[0].Inputs[1])
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != tr1 {
		t.Errorf("released trace was not recycled")
	}
	if !tr2.Equal(want) {
		t.Errorf("recycled trace differs for an identical-behaviour input:\n%s", tr2.Diff(want))
	}
}
