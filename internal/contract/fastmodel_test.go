package contract_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// TestFastModelEquivalence cross-checks the specialized predecoded
// interpreter against the reference hook-driven emulator path: for random
// programs and inputs under every contract, both must produce identical
// contract traces and identical usage summaries. This is the pin behind the
// fastmodel.go bit-identity claim.
func TestFastModelEquivalence(t *testing.T) {
	for _, c := range []contract.Contract{contract.CTSeq, contract.CTCond, contract.ArchSeq} {
		t.Run(c.Name, func(t *testing.T) {
			// 2 pages, and the paper's 128-page STT sandbox: both paths run
			// on the same paged image — background base inputs, and mutants
			// that mix background with materialized pages.
			for _, geo := range []struct{ pages, programs int }{{2, 40}, {128, 12}} {
				fastModelEquivalence(t, c, geo.pages, geo.programs)
			}
		})
	}
}

func fastModelEquivalence(t *testing.T, c contract.Contract, pages, programs int) {
	gcfg := generator.DefaultConfig()
	gcfg.Pages = pages
	gcfg.Seed = 9001
	g := generator.New(gcfg)
	mut := generator.NewMutator(9002, !c.ObserveInitRegs, false)
	sb := g.Sandbox()
	for p := 0; p < programs; p++ {
		prog := g.Program()
		fast := contract.NewModel(c, prog, sb)
		ref := contract.NewModel(c, prog, sb)
		ref.SetReference(true)
		mutModel := contract.NewModel(c, prog, sb) // keeps the compared models' run counts equal
		for k := 0; k < 5; k++ {
			in := g.Input()
			if k%2 == 1 {
				tr, usage := mutModel.Collect(in)
				if m, ok := mut.Mutate(mutModel, in, usage, tr); ok {
					in = m
				}
			}
			ftr, fu := fast.Collect(in)
			rtr, ru := ref.Collect(in)
			if !ftr.Equal(rtr) {
				t.Fatalf("%d pages, program %d input %d: traces differ\nfast=%s\nref =%s\n%s",
					pages, p, k, ftr, rtr, prog)
			}
			if fu.LiveInRegs != ru.LiveInRegs {
				t.Fatalf("%d pages, program %d input %d: live-in regs differ: fast=%#x ref=%#x\n%s",
					pages, p, k, fu.LiveInRegs, ru.LiveInRegs, prog)
			}
			if fu.LoadedCount() != ru.LoadedCount() {
				t.Fatalf("%d pages, program %d input %d: loaded counts differ: fast=%d ref=%d\n%s",
					pages, p, k, fu.LoadedCount(), ru.LoadedCount(), prog)
			}
			for off := uint64(0); off < sb.Size(); off++ {
				if fu.Loaded(off) != ru.Loaded(off) {
					t.Fatalf("%d pages, program %d input %d: loaded bit differs at %#x: fast=%v ref=%v\n%s",
						pages, p, k, off, fu.Loaded(off), ru.Loaded(off), prog)
				}
			}
			// CollectTrace (the mutation-verification path, no usage
			// tracking) must agree too.
			if !fast.CollectTrace(in).Equal(ref.CollectTrace(in)) {
				t.Fatalf("%d pages, program %d input %d: CollectTrace differs\n%s", pages, p, k, prog)
			}
		}
		if fast.Truncated() != ref.Truncated() {
			t.Fatalf("%d pages, program %d: truncation counts differ: fast=%d ref=%d",
				pages, p, fast.Truncated(), ref.Truncated())
		}
	}
}

// TestModelTruncationCounted pins the MaxSteps satellite: a program that
// loops past the step budget must be cut off AND counted, on both model
// paths. Before the counter existed the truncation was silent — the trace
// just ended — which this test would have caught.
func TestModelTruncationCounted(t *testing.T) {
	// A two-instruction architectural loop: the backward jump never exits,
	// so the model must stop at MaxSteps.
	prog := &isa.Program{Insts: []isa.Inst{
		isa.ALUImm(isa.OpAdd, 0, 0, 1),
		isa.Jmp(0),
	}}
	sb := isa.Sandbox{Pages: 1}
	in := isa.NewInput(sb)
	for _, ref := range []bool{false, true} {
		md := contract.NewModel(contract.CTSeq, prog, sb)
		md.SetReference(ref)
		tr, _ := md.Collect(in)
		if md.Truncated() != 1 {
			t.Fatalf("reference=%v: Truncated()=%d, want 1", ref, md.Truncated())
		}
		if len(tr) != contract.MaxSteps {
			t.Fatalf("reference=%v: trace has %d obs, want exactly MaxSteps=%d PC obs",
				ref, len(tr), contract.MaxSteps)
		}
		// A second, well-behaved run must not inflate the counter.
		exit := &isa.Program{Insts: []isa.Inst{isa.Nop()}}
		md2 := contract.NewModel(contract.CTSeq, exit, sb)
		md2.SetReference(ref)
		md2.Collect(in)
		if md2.Truncated() != 0 {
			t.Fatalf("reference=%v: clean run counted a truncation", ref)
		}
	}
}
