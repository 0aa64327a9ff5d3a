// Package emu implements the functional emulator that AMuLeT-Go's leakage
// model runs on. It is the stand-in for the Unicorn emulator used by the
// paper: it executes test programs architecturally, reports every observable
// event through hooks, and supports checkpoint/rollback so the contract
// layer (package contract) can explore mispredicted branch paths for
// contracts with non-empty execution clauses (CT-COND). Every contract trace
// a campaign collects is produced by this emulator, so Step is on the hot
// path of every campaign.
//
// The emulator executes the µop IR (isa.Program), not frontend source
// programs — every ISA frontend lowers to that IR before anything runs, so
// one emulator serves the toy register ISA and the wasm stack machine alike.
package emu

import (
	"errors"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// Hooks receive architectural events during emulation. Nil hooks are
// skipped. Hooks fire on speculative paths too, when the driver explores
// them; the driver distinguishes paths itself.
type Hooks struct {
	OnPC    func(pc uint64)
	OnLoad  func(pc, addr uint64, size uint8, val uint64)
	OnStore func(pc, addr uint64, size uint8, val uint64)
}

// ErrStepLimit is returned by Run when the step budget is exhausted before
// the program exits. Generated programs are DAGs so this only triggers on
// malformed inputs.
var ErrStepLimit = errors.New("emu: step limit exceeded")

// Machine is a functional processor executing one test program in one
// sandbox. The zero value is usable once Load has given it a program; New
// does that and loads an input.
type Machine struct {
	prog  *isa.Program
	sb    isa.Sandbox
	Regs  [isa.NumRegs]uint64
	Flags isa.Flags
	PCIdx int // instruction index; == prog.Len() means exited
	Mem   *isa.Image
	Hooks Hooks

	steps int

	// Speculation support. While at least one checkpoint is active, stores
	// append undo entries to the journal so Rollback can restore memory
	// exactly.
	checkpoints []checkpoint
	journal     []undo
}

type checkpoint struct {
	regs     [isa.NumRegs]uint64
	flags    isa.Flags
	pcIdx    int
	steps    int
	journLen int
}

type undo struct {
	va   uint64
	size uint8
	old  uint64
}

// New builds a machine for program p with sandbox sb, loading input in.
func New(p *isa.Program, sb isa.Sandbox, in *isa.Input) *Machine {
	m := &Machine{}
	m.Load(p, sb)
	m.LoadInput(in)
	return m
}

// Load retargets the machine at program p in sandbox sb, keeping its
// memory image (rebuilt only when the sandbox geometry changes) and its
// speculation buffers. LoadInput must follow before the machine steps.
func (m *Machine) Load(p *isa.Program, sb isa.Sandbox) {
	if m.Mem == nil || sb != m.sb {
		m.Mem = isa.NewImage(sb)
	}
	m.prog, m.sb = p, sb
}

// LoadInput resets the architectural state to input in and rewinds the PC,
// without reconstructing the machine. This is the emulator-side analogue of
// the AMuLeT-Opt register/memory overwrite. Memory becomes a copy-on-write
// view of the input's: stores land in pages private to the machine, and the
// input is left untouched.
func (m *Machine) LoadInput(in *isa.Input) {
	m.Regs = in.Regs
	m.Flags = isa.Flags{}
	m.PCIdx = 0
	m.steps = 0
	m.Mem.ViewOf(&in.Mem)
	m.checkpoints = m.checkpoints[:0]
	m.journal = m.journal[:0]
}

// Done reports whether the program has exited.
func (m *Machine) Done() bool { return m.PCIdx >= m.prog.Len() }

// PC returns the current program counter as a virtual address.
func (m *Machine) PC() uint64 { return isa.PCOf(m.PCIdx) }

// Program returns the program under execution.
func (m *Machine) Program() *isa.Program { return m.prog }

// Sandbox returns the machine's sandbox geometry.
func (m *Machine) Sandbox() isa.Sandbox { return m.sb }

// Step executes one instruction. It returns true when the program has
// exited (including when called after exit).
func (m *Machine) Step() bool {
	if m.Done() {
		return true
	}
	in := m.prog.Insts[m.PCIdx]
	pc := m.PC()
	m.steps++
	if h := m.Hooks.OnPC; h != nil {
		h(pc)
	}

	next := m.PCIdx + 1
	switch {
	case in.Op == isa.OpNop || in.Op == isa.OpFence:
		// no architectural effect
	case in.Op.IsALU():
		a := m.Regs[in.Src1]
		b := m.Regs[in.Src2]
		if in.UseImm || in.Op == isa.OpMovImm {
			b = uint64(in.Imm)
		}
		res, fl, writes := isa.EvalALU(in.Op, in.Cond, a, b, m.Regs[in.Dst], m.Flags)
		if in.Op.SetsFlags() {
			m.Flags = fl
		}
		if writes {
			m.Regs[in.Dst] = res
		}
	case in.Op == isa.OpLoad:
		va := m.sb.EffAddr(m.Regs[in.Src1], in.Imm)
		val := m.Mem.Read(va, in.Size)
		m.Regs[in.Dst] = val
		if h := m.Hooks.OnLoad; h != nil {
			h(pc, va, in.Size, val)
		}
	case in.Op == isa.OpStore:
		va := m.sb.EffAddr(m.Regs[in.Src1], in.Imm)
		val := m.Regs[in.Src2]
		if len(m.checkpoints) > 0 {
			m.recordUndo(va, in.Size)
		}
		m.Mem.Write(va, in.Size, val)
		if h := m.Hooks.OnStore; h != nil {
			h(pc, va, in.Size, val)
		}
	case in.Op == isa.OpJmp:
		next = in.Target
	case in.Op == isa.OpBranch:
		if m.Flags.Eval(in.Cond) {
			next = in.Target
		}
	default:
		panic(fmt.Sprintf("emu: unhandled opcode %v", in.Op))
	}
	m.PCIdx = next
	return m.Done()
}

// Run executes until exit or until maxSteps instructions have retired.
func (m *Machine) Run(maxSteps int) error {
	for !m.Done() {
		if m.steps >= maxSteps {
			return ErrStepLimit
		}
		m.Step()
	}
	return nil
}

// CurInst returns the instruction about to execute. It panics after exit.
func (m *Machine) CurInst() isa.Inst { return m.prog.Insts[m.PCIdx] }

// --- checkpoint / rollback (speculative path exploration) ---

// Checkpoint pushes the current architectural state so a later Rollback can
// restore it. Checkpoints nest; memory writes are journaled while any
// checkpoint is active.
func (m *Machine) Checkpoint() {
	m.checkpoints = append(m.checkpoints, checkpoint{
		regs:     m.Regs,
		flags:    m.Flags,
		pcIdx:    m.PCIdx,
		steps:    m.steps,
		journLen: len(m.journal),
	})
}

// Rollback pops the most recent checkpoint and restores the architectural
// state, undoing journaled memory writes in reverse order. It panics if no
// checkpoint is active.
func (m *Machine) Rollback() {
	n := len(m.checkpoints)
	if n == 0 {
		panic("emu: Rollback without Checkpoint")
	}
	cp := m.checkpoints[n-1]
	m.checkpoints = m.checkpoints[:n-1]
	for i := len(m.journal) - 1; i >= cp.journLen; i-- {
		u := m.journal[i]
		m.Mem.Write(u.va, u.size, u.old)
	}
	m.journal = m.journal[:cp.journLen]
	m.Regs = cp.regs
	m.Flags = cp.flags
	m.PCIdx = cp.pcIdx
	m.steps = cp.steps
}

func (m *Machine) recordUndo(va uint64, size uint8) {
	m.journal = append(m.journal, undo{va: va, size: size, old: m.Mem.Read(va, size)})
}
