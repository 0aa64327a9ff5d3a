package stt_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func newCore(cfg stt.Config) *uarch.Core {
	return uarch.NewCore(uarch.DefaultConfig(), stt.New(cfg))
}

// sttInputs builds a relational pair for the 128-page sandbox: the secret
// at offset 64 maps to different pages, the shape of the paper's Figure 9.
func sttInputs(a, b uint64) (isa.Sandbox, *isa.Input, *isa.Input) {
	sb := isa.Sandbox{Pages: 128}
	mk := func(secret uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[4] = 64
		for k := 0; k < 8; k++ {
			in.Mem.SetByte(uint64(64+k), byte(secret>>(8*k)))
		}
		return in
	}
	return sb, mk(a), mk(b)
}

// TestLoadTransmitterBlocked verifies STT's core guarantee: a transient
// load whose address derives from speculatively accessed data does not
// change the cache (the two-load Spectre-v1 gadget is defeated).
func TestLoadTransmitterBlocked(t *testing.T) {
	sb, inA, inB := sttInputs(0x5140, 0x15140)
	prog := testgadget.SpectreV1MemSecret(140, false)

	core := newCore(stt.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x5140)) {
		t.Errorf("input A: tainted load transmitter executed; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("STT leaked through the cache:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestKV3TaintedStoreLeaksViaTLB reproduces the paper's STT finding
// (Figure 9): a transient store with a tainted address is allowed to
// execute and installs a D-TLB entry, leaking the speculatively loaded
// value's page.
func TestKV3TaintedStoreLeaksViaTLB(t *testing.T) {
	sb, inA, inB := sttInputs(0x5140, 0x15140)
	prog := testgadget.SpectreV1MemSecret(140, true)

	core := newCore(stt.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if !snapA.HasPage(testgadget.SandboxAddr(0x5140)) {
		t.Errorf("input A: tainted store installed no TLB entry (expected KV3); TLB=%#x", snapA.TLB)
	}
	if snapA.EqualTLB(snapB) {
		t.Errorf("expected KV3 TLB leak (differing TLB states), both=%#x", snapA.TLB)
	}
	// The store must NOT have touched the cache: the leak is TLB-only.
	if snapA.HasLine(testgadget.SandboxAddr(0x5140)) {
		t.Errorf("input A: tainted store modified the cache; L1D=%#x", snapA.L1D)
	}
}

// TestKV3PatchBlocksTaintedStores verifies DOLMA's fix: blocking tainted
// stores removes the TLB difference.
func TestKV3PatchBlocksTaintedStores(t *testing.T) {
	sb, inA, inB := sttInputs(0x5140, 0x15140)
	prog := testgadget.SpectreV1MemSecret(140, true)

	core := newCore(stt.Config{PatchKV3: true})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if !snapA.EqualTLB(snapB) {
		t.Errorf("patched STT still leaks via TLB:\nA=%#x\nB=%#x", snapA.TLB, snapB.TLB)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("patched STT leaks via cache:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestUntaintAfterResolution verifies that a correctly speculated chain is
// only delayed, not broken: once the branch resolves, the (now safe)
// dependent load executes and installs normally.
func TestUntaintAfterResolution(t *testing.T) {
	sb := isa.Sandbox{Pages: 128}
	// Branch architecturally not-taken and predicted not-taken: the
	// dependent load is blocked while tainted, then untainted at
	// resolution, and must complete with the right value.
	prog := &isa.Program{NumBlocks: 2}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),      // slow
		isa.CmpImm(1, 5),          // R1=1 -> not equal
		isa.Branch(isa.CondEQ, 5), // not taken, predicted not taken
		isa.Load(2, 4, 0, 8),      // speculative load (tainted until resolve)
		isa.Load(3, 2, 0, 8),      // dependent: blocked, then executes
	)
	for i := 0; i < 150; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	in := testgadget.BoundsInput(sb)
	in.Regs[4] = 64
	for k := 0; k < 8; k++ {
		in.Mem.SetByte(uint64(64+k), byte(uint64(0x5140)>>(8*k)))
	}

	core := newCore(stt.Config{})
	snap := testgadget.Run(core, prog, sb, in, testgadget.PrimeInvalidate)
	if !snap.HasLine(testgadget.SandboxAddr(0x5140)) {
		t.Errorf("untainted dependent load never executed; L1D=%#x", snap.L1D)
	}
	// The dependent load read from offset 0x5140, whose content is zero.
	if got := core.Regs()[3]; got != 0 {
		t.Errorf("dependent load returned %#x, want 0", got)
	}
}
