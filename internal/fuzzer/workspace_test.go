package fuzzer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// cutCtx is a context whose Err turns into Canceled after a number of
// calls: the pipeline polls Err once per input, so it cuts a unit off at a
// chosen input, deterministically.
type cutCtx struct {
	context.Context
	left int
}

func (c *cutCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// reuseUnit is one step of TestWorkspaceReuseMatchesFresh's sequence.
type reuseUnit struct {
	cfg  Config
	seed int64
	// execute runs the case on an executor after the comparison, so the
	// trace pool, the encoding scratch and the violation copies are
	// exercised; cutBuild / cutExec cut the unit off after that many
	// context polls in Case / ExecuteCase (-1: never).
	execute           bool
	cutBuild, cutExec int
}

// TestWorkspaceReuseMatchesFresh drives one workspace through a sequence of
// units — both frontends, the three contracts, 1- and 128-page sandboxes
// (so the geometry changes under the reused slab, model and usage), the
// legacy PRNG stream, violating units, and units cut short by cancellation
// while building and while executing — and requires every case it builds to
// equal, field by field, the case a fresh workspace builds for the same
// unit: source, µops, sandbox, every input's registers and memory, the
// class partition and class traces, rejected mutants, truncations and draw
// counts. The violations recorded along the way must still read as they
// did when recorded after the workspace has been reused for everything
// after them: nothing they hold may live in recycled storage.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	base := func(c contract.Contract, fe isa.Frontend, pages int) Config {
		cfg := quickConfig(1, 1)
		cfg.Contract = c
		cfg.Frontend = fe
		cfg.Gen.Pages = pages
		if pages > 1 {
			// Keep the 128-page cases' dense comparisons small.
			cfg.BaseInputs, cfg.MutantsPerInput = 3, 2
		}
		return cfg
	}
	var seq []reuseUnit
	seed := int64(100)
	sweep := func() {
		for _, c := range []contract.Contract{contract.CTSeq, contract.CTCond, contract.ArchSeq} {
			for _, fe := range []isa.Frontend{isa.Toy, wasm.Frontend} {
				for _, pages := range []int{1, 128} {
					for k := 0; k < 2; k++ {
						seed++
						seq = append(seq, reuseUnit{cfg: base(c, fe, pages), seed: seed, cutBuild: -1, cutExec: -1})
					}
				}
			}
		}
	}
	sweep()
	// Executed baseline CT-SEQ units of a campaign's first instance: the
	// insecure core violates in units 3 and 9. Unit 5 is cut off while
	// building, unit 7 while executing.
	for k := 0; k < 12; k++ {
		u := reuseUnit{cfg: base(contract.CTSeq, isa.Toy, 1), seed: UnitSeed(InstanceSeed(1, 0), k), execute: true, cutBuild: -1, cutExec: -1}
		switch k {
		case 5:
			u.cutBuild = 2
		case 7:
			u.cutExec = 7
		}
		seq = append(seq, u)
	}
	legacy := base(contract.CTSeq, isa.Toy, 1)
	legacy.Gen.LegacyRand = true
	seq = append(seq,
		reuseUnit{cfg: legacy, seed: 7, execute: true, cutBuild: -1, cutExec: -1},
		reuseUnit{cfg: legacy, seed: 9, cutBuild: -1, cutExec: -1})
	// The whole sweep again, on storage the violating units have been
	// through.
	sweep()

	// recorded is a violation and what it read as when it was recorded.
	type recorded struct {
		v          *Violation
		ctrace     contract.Trace
		inA, inB   []byte // the encoded inputs
		memA, memB []byte // and what they decode to
	}
	var kept []recorded
	execs := map[int]*executor.Executor{} // by sandbox pages
	ws := NewWorkspace()
	start := time.Now()
	for i, u := range seq {
		tag := fmt.Sprintf("unit %d (%s/%s/%d pages, legacy=%v, seed %d)", i,
			u.cfg.ResolvedFrontend().Name(), u.cfg.Contract.Name, u.cfg.Gen.Pages, u.cfg.Gen.LegacyRand, u.seed)
		if err := ws.Reset(u.cfg, u.seed); err != nil {
			t.Fatal(err)
		}
		var ctx context.Context = context.Background()
		if u.cutBuild >= 0 {
			ctx = &cutCtx{Context: ctx, left: u.cutBuild}
		}
		got, err := ws.Case(ctx, generator.Random{}, i)
		if u.cutBuild >= 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cut-off build returned %v, want context.Canceled", tag, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewWorkspace()
		if err := fresh.Reset(u.cfg, u.seed); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Case(context.Background(), generator.Random{}, i)
		if err != nil {
			t.Fatal(err)
		}
		compareCases(t, tag, u.cfg.ResolvedFrontend(), got, want)
		if ws.Draws() != fresh.Draws() {
			t.Fatalf("%s: %d draws, a fresh workspace %d", tag, ws.Draws(), fresh.Draws())
		}
		if !u.execute {
			continue
		}
		exec := execs[u.cfg.Gen.Pages]
		if exec == nil {
			exec = workerExecutor(u.cfg)
			execs[u.cfg.Gen.Pages] = exec
		}
		ctx = context.Background()
		if u.cutExec >= 0 {
			ctx = &cutCtx{Context: ctx, left: u.cutExec}
		}
		res := &Result{}
		_, err = ExecuteCase(ctx, exec, u.cfg, got, res, start)
		if u.cutExec >= 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cut-off execution returned %v, want context.Canceled", tag, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			a, b, err := v.Inputs()
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, recorded{
				v: v, ctrace: append(contract.Trace(nil), v.CTrace...),
				inA: bytes.Clone(v.InputA), inB: bytes.Clone(v.InputB),
				memA: a.Mem.Dense(), memB: b.Mem.Dense(),
			})
		}
	}
	if len(kept) < 2 {
		t.Fatalf("%d violations recorded, want the two of units 3 and 9", len(kept))
	}
	for k, r := range kept {
		a, b, err := r.v.Inputs()
		if err != nil {
			t.Fatal(err)
		}
		if !r.v.CTrace.Equal(r.ctrace) || !bytes.Equal(r.v.InputA, r.inA) || !bytes.Equal(r.v.InputB, r.inB) ||
			!bytes.Equal(a.Mem.Dense(), r.memA) || !bytes.Equal(b.Mem.Dense(), r.memB) {
			t.Errorf("violation %d (program %d) changed after its workspace was reused", k, r.v.ProgramIndex)
		}
	}
}

// compareCases fails unless two program cases are equal in everything the
// pipeline consumes.
func compareCases(t *testing.T, tag string, fe isa.Frontend, got, want *ProgramCase) {
	t.Helper()
	if !bytes.Equal(fe.EncodeProgram(nil, got.Source), fe.EncodeProgram(nil, want.Source)) {
		t.Fatalf("%s: source programs differ", tag)
	}
	if got.Prog.Len() != want.Prog.Len() {
		t.Fatalf("%s: %d µops, fresh %d", tag, got.Prog.Len(), want.Prog.Len())
	}
	for k := range got.Prog.Insts {
		if got.Prog.Insts[k] != want.Prog.Insts[k] {
			t.Fatalf("%s: µop %d differs: %v, fresh %v", tag, k, got.Prog.Insts[k], want.Prog.Insts[k])
		}
	}
	if got.SB != want.SB || got.Index != want.Index {
		t.Fatalf("%s: sandbox/index %v/%d, fresh %v/%d", tag, got.SB, got.Index, want.SB, want.Index)
	}
	if got.RejectedMutants != want.RejectedMutants || got.Truncations != want.Truncations {
		t.Fatalf("%s: rejected/truncations %d/%d, fresh %d/%d", tag,
			got.RejectedMutants, got.Truncations, want.RejectedMutants, want.Truncations)
	}
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("%s: %d classes, fresh %d", tag, len(got.Classes), len(want.Classes))
	}
	for c, gc := range got.Classes {
		wc := want.Classes[c]
		if !gc.CTrace.Equal(wc.CTrace) {
			t.Fatalf("%s: class %d traces differ", tag, c)
		}
		if len(gc.Inputs) != len(wc.Inputs) {
			t.Fatalf("%s: class %d holds %d inputs, fresh %d", tag, c, len(gc.Inputs), len(wc.Inputs))
		}
		for k, in := range gc.Inputs {
			if in.Regs != wc.Inputs[k].Regs || !bytes.Equal(in.Mem.Dense(), wc.Inputs[k].Mem.Dense()) {
				t.Fatalf("%s: class %d input %d differs", tag, c, k)
			}
		}
	}
}

// TestWorkspaceResetRejectsBadConfig: a workspace validates the unit's
// configuration like every campaign entry point.
func TestWorkspaceResetRejectsBadConfig(t *testing.T) {
	cfg := quickConfig(1, 1)
	cfg.DefenseFactory = nil
	if err := NewWorkspace().Reset(cfg, 1); err == nil {
		t.Error("a config without a defense factory was accepted")
	}
}

// slabFootprint is the most page and block storage a workspace's slab may
// hold after generating 60 of model-stt's units. Each mutant materializes
// the pages its restored loaded words live in, ≈ 16 per input and a word or
// two each: 760 pages and 824 blocks at the widest program, which two
// 512-page and two 512-block chunks hold, 640 KB in all at 128 bytes a page
// and 512 a block. Stored as whole 4 KB pages, the same 760 took ≈ 3.2 MB
// per worker.
const slabFootprint = 768 << 10

// TestSlabFootprint pins what a worker's slab carves for the inputs of the
// model-stt workload's units: STT at ARCH-SEQ, a 128-page sandbox, 8 base
// inputs with 5 mutants each. The slab keeps its widest program's pages
// and blocks, so this is the storage a worker carries for the campaign.
func TestSlabFootprint(t *testing.T) {
	cfg := quickConfig(1, 1)
	cfg.Contract = contract.ArchSeq
	cfg.DefenseFactory = func() uarch.Defense { return stt.New(stt.Config{}) }
	cfg.Gen.Pages = 128
	cfg.BaseInputs, cfg.MutantsPerInput = 8, 5
	w := NewWorkspace()
	for u := 0; u < 60; u++ {
		if err := w.Reset(cfg, int64(1000+u)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Case(context.Background(), nil, u); err != nil {
			t.Fatal(err)
		}
	}
	carved := w.slab.Carved()
	t.Logf("the slab holds %d KB of pages and blocks", carved>>10)
	if carved > slabFootprint {
		t.Errorf("the slab holds %d bytes of pages and blocks, budget %d", carved, slabFootprint)
	}
}
