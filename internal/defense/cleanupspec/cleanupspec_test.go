package cleanupspec_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func newCore(cfg cleanupspec.Config) *uarch.Core {
	return uarch.NewCore(uarch.DefaultConfig(), cleanupspec.New(cfg))
}

func memSecretInputs(sb isa.Sandbox, a, b uint64) (*isa.Input, *isa.Input) {
	mk := func(secret uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[4] = 64
		for k := 0; k < 8; k++ {
			in.Mem.SetByte(uint64(64+k), byte(secret>>(8*k)))
		}
		return in
	}
	return mk(a), mk(b)
}

// TestCleanupProtectsLoadGadget verifies the core mechanism: the classic
// two-load Spectre-v1 gadget does not leak because the transient loads'
// installs are rolled back on the squash.
func TestCleanupProtectsLoadGadget(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(140, false)
	inA, inB := memSecretInputs(sb, 0x140, 0xa40)

	core := newCore(cleanupspec.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x140)) {
		t.Errorf("input A: transient line survived cleanup; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("two-load gadget leaked through CleanupSpec:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestUV3SpecStoreNotCleaned reproduces the paper's UV3: the transient
// transmitter is a store; its write-allocate install records no cleanup
// metadata (the writeCallback bug), so the secret-dependent line survives
// the squash.
func TestUV3SpecStoreNotCleaned(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(140, true)
	inA, inB := memSecretInputs(sb, 0x140, 0xa40)

	core := newCore(cleanupspec.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if !snapA.HasLine(testgadget.SandboxAddr(0x140)) {
		t.Errorf("input A: speculative store's line was cleaned, expected UV3 leak; L1D=%#x", snapA.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected UV3 leak (differing caches), both=%#x", snapA.L1D)
	}
}

// TestUV3PatchCleansStores verifies the fix: with store metadata recorded,
// the same gadget no longer leaks.
func TestUV3PatchCleansStores(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(140, true)
	inA, inB := memSecretInputs(sb, 0x140, 0xa40)

	core := newCore(cleanupspec.Config{PatchUV3: true})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x140)) {
		t.Errorf("input A: patched CleanupSpec left the store line; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("patched CleanupSpec still leaks:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// splitLoadGadget is the UV4 shape: the transient load crosses a cache
// line boundary, spawning a split request that the implementation's
// `TODO: Cleanup for SplitReq` never rolls back.
func splitLoadGadget() *isa.Program {
	p := &isa.Program{NumBlocks: 2}
	p.Insts = append(p.Insts,
		isa.Load(1, 0, 0, 8),      // bounds (slow)
		isa.CmpImm(1, 0),          //
		isa.Branch(isa.CondNE, 6), // arch taken, predicted not-taken
		isa.Load(2, 4, 0, 8),      // transient secret load
		isa.Load(3, 2, 62, 8),     // transient split load: [secret+62 .. +69]
		isa.Nop(),
	)
	for i := 0; i < 140; i++ {
		p.Insts = append(p.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	return p
}

// TestUV4SplitRequestNotCleaned reproduces UV4: split transient loads are
// not rolled back at all.
func TestUV4SplitRequestNotCleaned(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := splitLoadGadget()
	inA, inB := memSecretInputs(sb, 0x300, 0xa00)

	core := newCore(cleanupspec.Config{})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	// Split access at secret+62 touches lines secret+0x0 and secret+0x40.
	if !snapA.HasLine(testgadget.SandboxAddr(0x300)) || !snapA.HasLine(testgadget.SandboxAddr(0x340)) {
		t.Errorf("input A: split transient lines missing, expected UV4 leak; L1D=%#x", snapA.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected UV4 leak (differing caches), both=%#x", snapA.L1D)
	}
}

// TestUV4FixCleansSplits verifies that resolving the TODO removes the leak.
func TestUV4FixCleansSplits(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := splitLoadGadget()
	inA, inB := memSecretInputs(sb, 0x300, 0xa00)

	core := newCore(cleanupspec.Config{FixSplitCleanup: true})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(0x300)) || snapA.HasLine(testgadget.SandboxAddr(0x340)) {
		t.Errorf("input A: split lines survived the fixed cleanup; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) {
		t.Errorf("split-fixed CleanupSpec still leaks:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestUV5TooMuchCleaning reproduces the paper's Table 9: a non-speculative
// load reordered after a transient load to the same line loses its cache
// footprint when the transient load's install is rolled back.
func TestUV5TooMuchCleaning(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	// NSL's address (192) derives from the slow bounds load, so the NSL
	// executes *after* the transient load; the transient load's address is
	// input A: 192 (same line), input B: 320 (different line).
	prog := &isa.Program{NumBlocks: 2}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),             // 0: slow; R1 = 1
		isa.ALUImm(isa.OpAdd, 2, 1, 191), // 1: R2 = 192 (late)
		isa.Load(5, 2, 0, 8),             // 2: NSL to 192 (line 0xc0), executes late
		isa.CmpImm(1, 0),                 // 3
		isa.Branch(isa.CondNE, 8),        // 4: arch taken, predicted not-taken
		isa.Load(7, 9, 0, 8),             // 5: transient load (A: 192, B: 320)
		isa.Nop(),                        // 6
		isa.Nop(),                        // 7
	)
	for i := 0; i < 140; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	mk := func(slAddr uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[9] = slAddr
		return in
	}
	inA, inB := mk(192), mk(320)

	// UV5 persists even with UV3/UV4 fixed: it is inherent to rollback
	// without ownership tracking.
	core := newCore(cleanupspec.Config{PatchUV3: true, FixSplitCleanup: true})
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)

	if snapA.HasLine(testgadget.SandboxAddr(192)) {
		t.Errorf("input A: NSL's line survived (expected it over-cleaned); L1D=%#x", snapA.L1D)
	}
	if !snapB.HasLine(testgadget.SandboxAddr(192)) {
		t.Errorf("input B: NSL's line missing; L1D=%#x", snapB.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("expected UV5 leak (differing caches)")
	}
}

// TestKV2UnXpecTimingChannel reproduces the unXpec-style finding (Table
// 10): cleanup work delays execution, the fetch unit runs further beyond
// the end of the test, and the extra speculatively fetched lines appear in
// the L1I state — while the D-side state stays identical.
func TestKV2UnXpecTimingChannel(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	// Input A's transient load hits a pre-warmed line (no install ->
	// nothing to clean); input B's misses on a fresh line (install ->
	// rollback work). A trailing dependent load chain is delayed by the
	// cleanup's port blocking in B only.
	prog := &isa.Program{NumBlocks: 2}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),      // 0: bounds load, line 0x0
		isa.CmpImm(1, 0),          // 1
		isa.Branch(isa.CondNE, 5), // 2: arch taken, predicted not-taken
		isa.Load(2, 9, 0, 8),      // 3: transient (A: line 0x0, B: line 0x900)
		isa.Nop(),                 // 4
		isa.Load(3, 10, 0, 8),     // 5: post-squash load, delayed by cleanup in B
		isa.Load(4, 3, 64, 4),     // 6: dependent load chain
	)
	for i := 0; i < 40; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 12, 12, 1))
	}
	mk := func(slAddr uint64) *isa.Input {
		in := testgadget.BoundsInput(sb)
		in.Regs[9] = slAddr
		in.Regs[10] = 0x700
		return in
	}
	inA, inB := mk(0x600), mk(0x900)

	warm := func(c *uarch.Core) {
		c.Hier.L1D.Install(testgadget.SandboxAddr(0x600))
		c.Hier.L2.Install(testgadget.SandboxAddr(0x600))
	}
	core := newCore(cleanupspec.Config{CleanupCycles: 90})
	snapA := testgadget.RunWithSetup(core, prog, sb, inA, testgadget.PrimeInvalidate, warm)
	snapB := testgadget.RunWithSetup(core, prog, sb, inB, testgadget.PrimeInvalidate, warm)

	t.Logf("endA=%d endB=%d", snapA.EndCycle, snapB.EndCycle)
	if snapA.EndCycle == snapB.EndCycle {
		t.Errorf("expected cleanup to delay input B's execution")
	}
	if snapA.EqualL1I(snapB) {
		t.Errorf("expected differing L1I states (unXpec channel):\nA=%#x\nB=%#x", snapA.L1I, snapB.L1I)
	}
}

// TestMetadataRetiredAtCommit checks that committed accesses stop holding
// cleanup metadata (no unbounded growth across a run).
func TestMetadataRetiredAtCommit(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(40, false)
	in, _ := memSecretInputs(sb, 0x140, 0xa40)

	def := cleanupspec.New(cleanupspec.Config{})
	core := uarch.NewCore(uarch.DefaultConfig(), def)
	testgadget.Run(core, prog, sb, in, testgadget.PrimeInvalidate)
	if n := def.PendingMeta(); n != 0 {
		t.Errorf("cleanup metadata left after run: %d entries", n)
	}
}
