package speclfb_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func newCore(cfg speclfb.Config) *uarch.Core {
	return uarch.NewCore(uarch.DefaultConfig(), speclfb.New(cfg))
}

// TestUV6SingleSpecLoadLeaks reproduces the paper's SpecLFB finding
// (Figure 8): the first speculative load in the LSQ is marked safe by the
// implementation's undocumented optimization, so a single-load Spectre-v1
// gadget with a register secret installs a secret-dependent line.
func TestUV6SingleSpecLoadLeaks(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1RegSecret(120)
	inA := testgadget.BoundsInput(sb)
	inA.Regs[9] = 0x100
	inB := testgadget.BoundsInput(sb)
	inB.Regs[9] = 0x900

	core := newCore(speclfb.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if !snapA.HasLine(testgadget.SandboxAddr(0x100)) {
		t.Errorf("input A: unprotected first spec load did not install 0x100; L1D=%#x", snapA.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected UV6 leak (differing caches), both=%#x", snapA.L1D)
	}
}

// TestUV6PatchProtects verifies that removing the first-load exemption
// restores protection: the squashed load's line never becomes visible.
func TestUV6PatchProtects(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1RegSecret(120)
	inA := testgadget.BoundsInput(sb)
	inA.Regs[9] = 0x100
	inB := testgadget.BoundsInput(sb)
	inB.Regs[9] = 0x900

	core := newCore(speclfb.Config{PatchUV6: true})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x100)) {
		t.Errorf("input A: squashed protected load leaked line 0x100; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("patched SpecLFB still leaks:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestSecondSpecLoadProtected verifies that in the *unpatched*
// implementation the classic two-load gadget does NOT leak: the secret-
// dependent load is not the first speculative load, so it is parked in the
// LFB and dropped at squash. This is why the paper's SpecLFB violations
// all look like Figure 8 (secret in a register, one speculative load).
func TestSecondSpecLoadProtected(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(140, false)
	mk := func(secret uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[4] = 64
		for k := 0; k < 8; k++ {
			in.Mem.SetByte(uint64(64+k), byte(secret>>(8*k)))
		}
		return in
	}
	inA, inB := mk(0x140), mk(0xa40)

	core := newCore(speclfb.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x140)) {
		t.Errorf("input A: protected second spec load leaked; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("two-load gadget should not leak on SpecLFB:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestSafeLoadsCommitNormally verifies that a correctly-speculated load
// staged in the LFB is released into the cache when it commits.
func TestSafeLoadsCommitNormally(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	// Branch is architecturally not-taken and predicted not-taken (cold
	// counters): loads after it are speculative until it resolves, then
	// commit and must become visible.
	prog := &isa.Program{NumBlocks: 2}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),      // slow: keeps the branch unresolved
		isa.CmpImm(1, 5),          // R1=1 -> NE -> B.EQ not taken
		isa.Branch(isa.CondEQ, 5), // correctly predicted not-taken
		isa.Load(2, 9, 0, 8),      // speculative, then safe; must install
		isa.Nop(),
	)
	for i := 0; i < 150; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	in := testgadget.BoundsInput(sb)
	in.Regs[9] = 0x500

	core := newCore(speclfb.Config{PatchUV6: true})
	snap := testgadget.Run(core, prog, sb, in, testgadget.PrimeInvalidate)
	if !snap.HasLine(testgadget.SandboxAddr(0x500)) {
		t.Errorf("committed speculative load's line 0x500 missing; L1D=%#x", snap.L1D)
	}
}
