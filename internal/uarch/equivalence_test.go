package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestSimEmuArchEquivalence is the core correctness check of the whole
// simulator: for random programs and inputs, the out-of-order core — with
// any defense attached, including their deliberately seeded bugs — must
// commit exactly the architectural state the functional emulator computes.
// Speculation, squashes, store bypassing, taint blocking and rollback may
// change *timing* and *µarch state* but never architectural results.
func TestSimEmuArchEquivalence(t *testing.T) {
	cfg := generator.DefaultConfig()
	cfg.Pages = 2
	for name, mk := range allDefenses() {
		t.Run(name, func(t *testing.T) {
			gcfg := cfg
			gcfg.Seed = 12345
			g := generator.New(gcfg)
			sb := g.Sandbox()
			core := uarch.NewCore(uarch.DefaultConfig(), mk())
			for i := 0; i < 60; i++ {
				prog := g.Program()
				in := g.Input()

				if err := core.LoadTest(prog, sb); err != nil {
					t.Fatal(err)
				}
				core.ResetUarch()
				core.ResetForInput(in)
				if err := core.Run(); err != nil {
					t.Fatalf("program %d: %v\n%s", i, err, prog)
				}

				m := emu.New(prog, sb, in)
				if err := m.Run(100000); err != nil {
					t.Fatalf("program %d emulator: %v", i, err)
				}

				if core.Regs() != m.Regs {
					t.Fatalf("program %d: register files differ\nsim=%v\nemu=%v\n%s",
						i, core.Regs(), m.Regs, prog)
				}
				simMem, emuMem := core.Image().Dense(), m.Mem.Dense()
				for off := range simMem {
					if simMem[off] != emuMem[off] {
						t.Fatalf("program %d: memory differs at %#x: sim=%#x emu=%#x\n%s",
							i, off, simMem[off], emuMem[off], prog)
					}
				}
			}
		})
	}
}

// TestSimEquivalenceWithCarryover repeats the check with predictor and
// cache state carried across inputs (the Opt strategy): stale predictor
// state must never change architectural results either.
func TestSimEquivalenceWithCarryover(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 777
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	for p := 0; p < 10; p++ {
		prog := g.Program()
		if err := core.LoadTest(prog, sb); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			in := g.Input()
			core.ResetForInput(in) // predictors and caches carry over
			if err := core.Run(); err != nil {
				t.Fatalf("program %d input %d: %v", p, k, err)
			}
			m := emu.New(prog, sb, in)
			if err := m.Run(100000); err != nil {
				t.Fatal(err)
			}
			if core.Regs() != m.Regs {
				t.Fatalf("program %d input %d: registers differ with carryover\n%s", p, k, prog)
			}
		}
	}
}

// TestSimDeterminism: identical (program, input, context) runs must yield
// identical cycle counts and µarch snapshots.
func TestSimDeterminism(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 31
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	for i := 0; i < 20; i++ {
		prog := g.Program()
		in := g.Input()
		runOnce := func() (uint64, []uint64) {
			if err := core.LoadTest(prog, sb); err != nil {
				t.Fatal(err)
			}
			core.ResetUarch()
			core.ResetForInput(in)
			if err := core.Run(); err != nil {
				t.Fatal(err)
			}
			return core.EndCycle(), core.Hier.L1D.Snapshot()
		}
		end1, snap1 := runOnce()
		end2, snap2 := runOnce()
		if end1 != end2 {
			t.Fatalf("program %d: end cycles differ (%d vs %d)", i, end1, end2)
		}
		if len(snap1) != len(snap2) {
			t.Fatalf("program %d: snapshots differ", i)
		}
		for k := range snap1 {
			if snap1[k] != snap2[k] {
				t.Fatalf("program %d: snapshots differ at %d", i, k)
			}
		}
	}
}

// TestFenceSerializes checks that FENCE drains speculation: a load after a
// fence is never issued under a branch shadow.
func TestFenceSerializes(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),      // slow
		isa.CmpImm(1, 0),          //
		isa.Branch(isa.CondNE, 5), // arch taken, predicted not-taken
		isa.Fence(),               // wrong path: fence blocks further fetch
		isa.Load(2, 9, 0, 8),      // must never issue speculatively
		isa.Nop(),
	}}
	in := isa.NewInput(sb)
	in.Mem.SetByte(0, 1)
	in.Regs[9] = 0x900

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	core.ResetUarch()
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	for _, la := range core.Hier.L1D.Snapshot() {
		if la == isa.DataBase+0x900 {
			t.Errorf("load behind a wrong-path FENCE reached the cache")
		}
	}
}
