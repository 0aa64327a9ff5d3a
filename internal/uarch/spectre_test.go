package uarch_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestBaselineSpectreV1RegSecret verifies that the unprotected core leaks a
// register-borne secret through a transient load's cache install: the
// canonical Spectre-v1 leak AMuLeT flags as a CT-SEQ violation.
func TestBaselineSpectreV1RegSecret(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1RegSecret(8)

	inA := testgadget.BoundsInput(sb)
	inA.Regs[9] = 0x100
	inB := testgadget.BoundsInput(sb)
	inB.Regs[9] = 0x900

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.Stats.Mispredicts == 0 {
		t.Fatalf("gadget did not mispredict; stats: %+v", snapA.Stats)
	}
	if !snapA.HasLine(testgadget.SandboxAddr(0x100)) {
		t.Errorf("input A: transient line 0x100 not installed; L1D=%#x", snapA.L1D)
	}
	if !snapB.HasLine(testgadget.SandboxAddr(0x900)) {
		t.Errorf("input B: transient line 0x900 not installed; L1D=%#x", snapB.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected differing cache states (Spectre-v1 leak), both=%#x", snapA.L1D)
	}
}

// TestBaselineSpectreV1MemSecret verifies the two-load gadget: a transient
// load fetches a secret from memory and a second transient load encodes it
// in its address.
func TestBaselineSpectreV1MemSecret(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(140, false)

	mk := func(secret uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[4] = 64 // secret location
		for k := 0; k < 8; k++ {
			in.Mem.SetByte(uint64(64+k), byte(secret>>(8*k)))
		}
		return in
	}
	inA, inB := mk(0x140), mk(0xa40)

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if !snapA.HasLine(testgadget.SandboxAddr(0x140)) {
		t.Errorf("input A: encoded line 0x140 missing; L1D=%#x", snapA.L1D)
	}
	if !snapB.HasLine(testgadget.SandboxAddr(0xa40)) {
		t.Errorf("input B: encoded line 0xa40 missing; L1D=%#x", snapB.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected differing cache states, both=%#x", snapA.L1D)
	}
}

// TestBaselineSpectreV4 verifies speculative store bypass: a load issues
// before an older store's address resolves, reads the stale value, and a
// dependent load encodes it in the cache before the squash.
func TestBaselineSpectreV4(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	// R0 -> 0 (slow chain providing the store address), R2 = 128 (the
	// conflicting location), stale mem[128..] = secret, store writes 0.
	//
	//  0: LD  R1, [R0]      ; slow: store address dependency
	//  1: ADD R1, R1, 128   ; store address = 128 (known late)
	//  2: ST  [R1], R3      ; older store, address unresolved for a while
	//  3: LD  R4, [R2]      ; same address 128: bypasses the store (MDP cold)
	//  4: AND R4, R4, 0xfc0 ; line-align the stale secret
	//  5: LD  R5, [R4]      ; transmitter: installs secret-dependent line
	//  6+ tail
	prog := &isa.Program{NumBlocks: 1}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),
		isa.ALUImm(isa.OpAdd, 1, 1, 40),
		isa.ALUImm(isa.OpAdd, 1, 1, 40),
		isa.ALUImm(isa.OpAdd, 1, 1, 48),
		isa.Store(1, 0, 3, 8),
		isa.Load(4, 2, 0, 8),
		isa.ALUImm(isa.OpAnd, 4, 4, 0xfc0),
		isa.Load(5, 4, 0, 8),
	)
	// Long dependent tail: the transmitter's fill (~74 cycles on a cold
	// L2) must land before the program ends.
	for i := 0; i < 120; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}

	mk := func(stale uint64) *isa.Input {
		in := isa.NewInput(sb)
		in.Regs[2] = 128
		for k := 0; k < 8; k++ {
			in.Mem.SetByte(uint64(128+k), byte(stale>>(8*k)))
		}
		return in
	}
	inA, inB := mk(0x340), mk(0xb40)

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.Stats.MemOrderViolations == 0 {
		t.Fatalf("expected a memory-order violation (store bypass); stats: %+v", snapA.Stats)
	}
	if !snapA.HasLine(testgadget.SandboxAddr(0x340)) {
		t.Errorf("input A: stale-secret line 0x340 missing; L1D=%#x", snapA.L1D)
	}
	if !snapB.HasLine(testgadget.SandboxAddr(0xb40)) {
		t.Errorf("input B: stale-secret line 0xb40 missing; L1D=%#x", snapB.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected differing cache states (Spectre-v4), both=%#x", snapA.L1D)
	}
}

// TestBaselineArchEquivalence cross-checks the simulator against the
// functional emulator: for arbitrary programs/inputs the committed
// architectural state must be identical. (More exhaustive randomized
// equivalence lives in the fuzzer package tests.)
func TestBaselineArchEquivalence(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(4, true)
	in := testgadget.BoundsInput(sb)
	in.Regs[4] = 64

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	testgadget.Run(core, prog, sb, in, testgadget.PrimeInvalidate)

	m := newEmu(t, prog, sb, in)
	if core.Regs() != m.Regs {
		t.Errorf("register files differ:\n sim=%v\n emu=%v", core.Regs(), m.Regs)
	}
	simMem := core.Image().Dense()
	emuMem := m.Mem.Dense()
	for i := range simMem {
		if simMem[i] != emuMem[i] {
			t.Fatalf("memory differs at offset %d: sim=%#x emu=%#x", i, simMem[i], emuMem[i])
		}
	}
}
