package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sith-lab/amulet-go/internal/isa"
)

func run(t *testing.T, insts []isa.Inst, in *isa.Input, pages int) *Machine {
	t.Helper()
	sb := isa.Sandbox{Pages: pages}
	p := &isa.Program{Insts: insts}
	if err := p.Validate(); err != nil {
		t.Fatalf("bad test program: %v", err)
	}
	m := New(p, sb, in)
	if err := m.Run(10000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestStraightLineALU(t *testing.T) {
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	m := run(t, []isa.Inst{
		isa.MovImm(1, 10),
		isa.ALUImm(isa.OpAdd, 2, 1, 5),
		isa.ALU(isa.OpMul, 3, 2, 2),
	}, in, 1)
	if m.Regs[1] != 10 || m.Regs[2] != 15 || m.Regs[3] != 225 {
		t.Errorf("regs = %v", m.Regs[:4])
	}
}

func TestLoadStore(t *testing.T) {
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	m := run(t, []isa.Inst{
		isa.MovImm(1, 0xabcd),
		isa.Store(0, 64, 1, 2),
		isa.Load(2, 0, 64, 2),
		isa.Load(3, 0, 64, 1),
	}, in, 1)
	if m.Regs[2] != 0xabcd {
		t.Errorf("R2 = %#x, want 0xabcd", m.Regs[2])
	}
	if m.Regs[3] != 0xcd {
		t.Errorf("R3 = %#x, want 0xcd (one byte)", m.Regs[3])
	}
}

func TestBranchTakenAndNot(t *testing.T) {
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	m := run(t, []isa.Inst{
		isa.CmpImm(0, 0), // R0=0 -> equal
		isa.Branch(isa.CondEQ, 4),
		isa.MovImm(1, 111), // skipped
		isa.Nop(),
		isa.MovImm(2, 222),
	}, in, 1)
	if m.Regs[1] != 0 || m.Regs[2] != 222 {
		t.Errorf("taken branch executed fallthrough: regs=%v", m.Regs[:3])
	}

	m = run(t, []isa.Inst{
		isa.CmpImm(0, 1), // R0=0 -> not equal
		isa.Branch(isa.CondEQ, 4),
		isa.MovImm(1, 111),
		isa.Nop(),
		isa.MovImm(2, 222),
	}, in, 1)
	if m.Regs[1] != 111 {
		t.Errorf("not-taken branch skipped fallthrough")
	}
}

func TestJmpSkips(t *testing.T) {
	in := isa.NewInput(isa.Sandbox{Pages: 1})
	m := run(t, []isa.Inst{
		isa.Jmp(2),
		isa.MovImm(1, 1),
		isa.MovImm(2, 2),
	}, in, 1)
	if m.Regs[1] != 0 || m.Regs[2] != 2 {
		t.Errorf("JMP wrong: regs=%v", m.Regs[:3])
	}
}

func TestHooksFire(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	in := isa.NewInput(sb)
	p := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0x11),
		isa.Store(0, 8, 1, 8),
		isa.Load(2, 0, 8, 8),
		isa.CmpImm(2, 0),
		isa.Branch(isa.CondNE, 6),
		isa.Nop(),
	}}
	m := New(p, sb, in)
	var pcs, loads, stores, branches int
	var loadVal uint64
	m.Hooks = Hooks{
		OnPC:     func(uint64) { pcs++ },
		OnLoad:   func(_, _ uint64, _ uint8, v uint64) { loads++; loadVal = v },
		OnStore:  func(_, _ uint64, _ uint8, _ uint64) { stores++ },
		OnBranch: func(_ uint64, taken bool, _ uint64) { branches++; _ = taken },
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if pcs != 5 || loads != 1 || stores != 1 || branches != 1 {
		t.Errorf("hook counts: pc=%d ld=%d st=%d br=%d", pcs, loads, stores, branches)
	}
	if loadVal != 0x11 {
		t.Errorf("load hook value = %#x", loadVal)
	}
}

func TestCheckpointRollbackRegisters(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	m := New(&isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 1),
		isa.MovImm(1, 2),
	}}, sb, isa.NewInput(sb))
	m.Step()
	m.Checkpoint()
	m.Step()
	if m.Regs[1] != 2 {
		t.Fatalf("R1 = %d before rollback", m.Regs[1])
	}
	m.Rollback()
	if m.Regs[1] != 1 || m.PCIdx != 1 {
		t.Errorf("rollback did not restore state: R1=%d PC=%d", m.Regs[1], m.PCIdx)
	}
}

func TestCheckpointRollbackMemoryNested(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	p := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xaa),
		isa.Store(0, 0, 1, 1),
		isa.MovImm(1, 0xbb),
		isa.Store(0, 0, 1, 1),
		isa.MovImm(1, 0xcc),
		isa.Store(0, 1, 1, 1),
	}}
	m := New(p, sb, isa.NewInput(sb))
	m.Step()
	m.Step() // mem[0] = 0xaa (not journaled, no checkpoint)
	m.Checkpoint()
	m.Step()
	m.Step() // mem[0] = 0xbb (journaled)
	m.Checkpoint()
	m.Step()
	m.Step() // mem[1] = 0xcc (journaled, inner)
	if m.SpecDepth() != 2 {
		t.Fatalf("depth = %d", m.SpecDepth())
	}
	m.Rollback()
	if m.Mem.Read(isa.DataBase+1, 1) != 0 {
		t.Errorf("inner rollback did not undo mem[1]")
	}
	if m.Mem.Read(isa.DataBase, 1) != 0xbb {
		t.Errorf("inner rollback undid too much")
	}
	m.Rollback()
	if m.Mem.Read(isa.DataBase, 1) != 0xaa {
		t.Errorf("outer rollback did not restore mem[0]=0xaa, got %#x", m.Mem.Read(isa.DataBase, 1))
	}
}

func TestRollbackWithoutCheckpointPanics(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	m := New(&isa.Program{}, sb, isa.NewInput(sb))
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	m.Rollback()
}

func TestStepLimit(t *testing.T) {
	// A long straight-line program with a tiny budget.
	insts := make([]isa.Inst, 100)
	for i := range insts {
		insts[i] = isa.Nop()
	}
	sb := isa.Sandbox{Pages: 1}
	m := New(&isa.Program{Insts: insts}, sb, isa.NewInput(sb))
	if err := m.Run(10); err != ErrStepLimit {
		t.Errorf("Run = %v, want ErrStepLimit", err)
	}
}

func TestLoadInputResets(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	p := &isa.Program{Insts: []isa.Inst{isa.MovImm(1, 7), isa.Store(0, 0, 1, 8)}}
	m := New(p, sb, isa.NewInput(sb))
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	in2 := isa.NewInput(sb)
	in2.Regs[2] = 99
	m.LoadInput(in2)
	if m.PCIdx != 0 || m.Regs[1] != 0 || m.Regs[2] != 99 || m.Steps() != 0 {
		t.Errorf("LoadInput did not reset")
	}
	if m.Mem.Read(isa.DataBase, 8) != 0 {
		t.Errorf("LoadInput did not reset memory")
	}
}

// TestCheckpointRollbackProperty: after an arbitrary run prefix, a
// checkpoint/execute/rollback cycle restores the full architectural state.
func TestCheckpointRollbackProperty(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		insts := randomStraightLine(rng, 30)
		p := &isa.Program{Insts: insts}
		in := isa.NewInput(sb)
		for i := range in.Regs {
			in.Regs[i] = rng.Uint64()
		}
		in.Mem.FillFrom(rng)
		m := New(p, sb, in)
		for i := 0; i < 10 && !m.Done(); i++ {
			m.Step()
		}
		regs, flags, pc := m.Regs, m.Flags, m.PCIdx
		memBefore := append([]byte(nil), m.Mem.Dense()...)
		m.Checkpoint()
		for i := 0; i < 15 && !m.Done(); i++ {
			m.Step()
		}
		m.Rollback()
		if m.Regs != regs || m.Flags != flags || m.PCIdx != pc {
			return false
		}
		for i, b := range m.Mem.Dense() {
			if b != memBefore[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomStraightLine builds a random branch-free instruction sequence.
func randomStraightLine(rng *rand.Rand, n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		switch rng.Intn(5) {
		case 0:
			insts[i] = isa.MovImm(isa.Reg(rng.Intn(16)), int64(rng.Uint64()>>8))
		case 1:
			insts[i] = isa.ALU(isa.OpAdd, isa.Reg(rng.Intn(16)), isa.Reg(rng.Intn(16)), isa.Reg(rng.Intn(16)))
		case 2:
			insts[i] = isa.Load(isa.Reg(rng.Intn(16)), isa.Reg(rng.Intn(16)), int64(rng.Intn(4096)), 8)
		case 3:
			insts[i] = isa.Store(isa.Reg(rng.Intn(16)), int64(rng.Intn(4096)), isa.Reg(rng.Intn(16)), 8)
		case 4:
			insts[i] = isa.CmpImm(isa.Reg(rng.Intn(16)), int64(rng.Intn(256)))
		}
	}
	return insts
}
