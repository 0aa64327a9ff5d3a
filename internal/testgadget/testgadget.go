// Package testgadget provides helpers for the hand-crafted leakage gadget
// tests that pin down each vulnerability the paper reports (Spectre-v1/v4
// on the baseline, UV1..UV6, KV1..KV3). The fuzzer finds these patterns by
// random search; the gadget tests reproduce each one deterministically so
// every defense mechanism and every seeded implementation bug is verified
// in isolation.
package testgadget

import (
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Snapshot is the micro-architectural end state of one gadget run.
type Snapshot struct {
	L1D      []uint64
	TLB      []uint64
	L1I      []uint64
	EndCycle uint64
	Stats    uarch.Stats
}

// EqualCaches reports whether the L1D snapshots match.
func (s *Snapshot) EqualCaches(o *Snapshot) bool { return eq(s.L1D, o.L1D) }

// EqualTLB reports whether the D-TLB snapshots match.
func (s *Snapshot) EqualTLB(o *Snapshot) bool { return eq(s.TLB, o.TLB) }

// EqualL1I reports whether the L1I snapshots match.
func (s *Snapshot) EqualL1I(o *Snapshot) bool { return eq(s.L1I, o.L1I) }

// HasLine reports whether the L1D snapshot contains the line holding addr.
func (s *Snapshot) HasLine(addr uint64) bool {
	la := addr &^ uint64(isa.LineSize-1)
	for _, v := range s.L1D {
		if v == la {
			return true
		}
	}
	return false
}

// HasPage reports whether the D-TLB snapshot contains the page of addr.
func (s *Snapshot) HasPage(addr uint64) bool {
	p := addr / isa.PageSize
	for _, v := range s.TLB {
		if v == p {
			return true
		}
	}
	return false
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrimeMode mirrors the executor's cache reset strategies without importing
// the executor (gadget tests sit below it).
type PrimeMode int

// Prime modes.
const (
	PrimeInvalidate PrimeMode = iota
	PrimeFill
)

// Run executes (prog, input) once on a fresh micro-architectural context
// and returns the end-state snapshot. It panics on simulator errors — in a
// gadget test any error is a test bug.
func Run(core *uarch.Core, prog *isa.Program, sb isa.Sandbox, in *isa.Input, prime PrimeMode) *Snapshot {
	return RunWithSetup(core, prog, sb, in, prime, nil)
}

// RunWithSetup is Run with a hook that may adjust the primed
// micro-architectural state (e.g. pre-installing cache lines) before the
// input loads. The setup must be identical for both inputs of a relational
// pair, so the runs share one initial context.
func RunWithSetup(core *uarch.Core, prog *isa.Program, sb isa.Sandbox, in *isa.Input, prime PrimeMode, setup func(*uarch.Core)) *Snapshot {
	if err := core.LoadTest(prog, sb); err != nil {
		panic(err)
	}
	core.ResetUarch()
	if prime == PrimeFill {
		// The exact fill prime the executor runs before every test case —
		// one shared implementation (mem.Hierarchy.PrimeL1D), so the gadget
		// tests exercise the campaigns' real primed state (L1D conflict
		// lines and the displaced D-TLB) and the two can never drift apart.
		core.Hier.PrimeL1D(false)
	}
	if setup != nil {
		setup(core)
	}
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		panic(err)
	}
	return &Snapshot{
		L1D:      core.Hier.L1D.Snapshot(),
		TLB:      core.Hier.DTLB.Snapshot(),
		L1I:      core.Hier.L1I.Snapshot(),
		EndCycle: core.EndCycle(),
		Stats:    core.Stats(),
	}
}

// SandboxAddr returns the virtual address of sandbox offset off.
func SandboxAddr(off uint64) uint64 { return isa.DataBase + off }

// SpectreV1RegSecret builds the canonical Spectre-v1 gadget with the secret
// in a register (the SpecLFB UV6 / paper Figure 8 pattern):
//
//	LD   R1, [R0]     ; bounds value, slow cache miss
//	CMP  R1, 0
//	B.NE exit         ; architecturally taken; cold predictor says not-taken
//	LD   R2, [R9]     ; transient: R9 is the secret
//	exit: <tail>
//
// The input has mem[R0..]=1 so the branch is taken; R9 differs between the
// two inputs of a relational pair.
func SpectreV1RegSecret(tail int) *isa.Program {
	p := &isa.Program{NumBlocks: 2}
	p.Insts = append(p.Insts,
		isa.Load(1, 0, 0, 8),      // 0: bounds load (miss -> late branch resolve)
		isa.CmpImm(1, 0),          // 1
		isa.Branch(isa.CondNE, 5), // 2: arch taken, predicted not-taken
		isa.Load(2, 9, 0, 8),      // 3: transient secret-address load
		isa.Nop(),                 // 4
	)
	appendTail(p, tail)
	return p
}

// SpectreV1MemSecret builds a Spectre-v1 gadget whose secret lives in
// memory: the transient path loads a secret byte and encodes it in the
// address of a second transient load (the classic two-load gadget).
//
//	LD   R1, [R0]      ; bounds value (slow)
//	CMP  R1, 0
//	B.NE exit          ; arch taken, predicted not-taken
//	LD   R2, [R4]      ; transient: loads the secret (address is fixed)
//	ST?  / LD R3,[R2]  ; transient: encodes the secret value in an address
//	exit: <tail>
//
// secretIsStoreAddr selects a store instead of the second load as the
// transmitter (the CleanupSpec UV3 and STT KV3 shapes).
func SpectreV1MemSecret(tail int, secretIsStoreAddr bool) *isa.Program {
	p := &isa.Program{NumBlocks: 2}
	transmit := isa.Load(3, 2, 0, 8)
	if secretIsStoreAddr {
		transmit = isa.Store(2, 0, 5, 8)
	}
	p.Insts = append(p.Insts,
		isa.Load(1, 0, 0, 8),      // 0: bounds load (slow)
		isa.CmpImm(1, 0),          // 1
		isa.Branch(isa.CondNE, 6), // 2: arch taken, predicted not-taken
		isa.Load(2, 4, 0, 8),      // 3: transient secret load (fixed addr)
		transmit,                  // 4: transient transmitter
		isa.Nop(),                 // 5
	)
	appendTail(p, tail)
	return p
}

// appendTail adds a dependent ALU chain that keeps the program running for
// roughly tail extra cycles after the interesting part — the window in
// which pending defense work (exposes, fills) may or may not complete.
func appendTail(p *isa.Program, tail int) {
	for i := 0; i < tail; i++ {
		p.Insts = append(p.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
}

// BoundsInput returns an input where mem[0..7] = 1 (so CMP/B.NE gadget
// branches are architecturally taken) and R0 = 0.
func BoundsInput(sb isa.Sandbox) *isa.Input {
	in := isa.NewInput(sb)
	in.Mem.SetByte(0, 1)
	return in
}
