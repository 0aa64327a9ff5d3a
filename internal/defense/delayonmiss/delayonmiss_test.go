package delayonmiss_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func newCore() *uarch.Core {
	return uarch.NewCore(uarch.DefaultConfig(), delayonmiss.New())
}

// TestBlocksV1RegSecret: the single-load Spectre-v1 gadget (which breaks
// SpecLFB's implementation) is clean under plain Delay-on-Miss: the
// transient miss never reaches the cache.
func TestBlocksV1RegSecret(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1RegSecret(120)
	inA := testgadget.BoundsInput(sb)
	inA.Regs[9] = 0x100
	inB := testgadget.BoundsInput(sb)
	inB.Regs[9] = 0x900

	core := newCore()
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)
	if snapA.HasLine(testgadget.SandboxAddr(0x100)) {
		t.Errorf("delayed speculative miss installed a line; L1D=%#x", snapA.L1D)
	}
	if !snapA.EqualCaches(snapB) || !snapA.EqualTLB(snapB) {
		t.Errorf("Delay-on-Miss leaked:\nA=%#x\nB=%#x", snapA.L1D, snapB.L1D)
	}
}

// TestBlocksV1MemSecret: the two-load gadget is clean as well.
func TestBlocksV1MemSecret(t *testing.T) {
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

	core := newCore()
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)
	if !snapA.EqualCaches(snapB) {
		t.Errorf("Delay-on-Miss leaked through the two-load gadget")
	}
}

// TestSpecHitsProceed: a speculative L1 hit is not delayed — the program's
// execution time shows it (the performance half of Delay-on-Miss).
func TestSpecHitsProceed(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := &isa.Program{NumBlocks: 2}
	prog.Insts = append(prog.Insts,
		isa.Load(1, 0, 0, 8),      // slow, keeps the branch unresolved
		isa.CmpImm(1, 5),          //
		isa.Branch(isa.CondEQ, 5), // correctly predicted not-taken
		isa.Load(2, 9, 0, 8),      // speculative
		isa.ALU(isa.OpAdd, 3, 2, 2),
	)
	in := testgadget.BoundsInput(sb)
	in.Regs[9] = 0x600

	run := func(warm bool) uint64 {
		core := newCore()
		setup := func(c *uarch.Core) {
			if warm {
				c.Hier.L1D.Install(testgadget.SandboxAddr(0x600))
				c.Hier.L2.Install(testgadget.SandboxAddr(0x600))
			}
		}
		return testgadget.RunWithSetup(core, prog, sb, in, testgadget.PrimeInvalidate, setup).EndCycle
	}
	warmEnd, coldEnd := run(true), run(false)
	if warmEnd >= coldEnd {
		t.Errorf("speculative hit (end=%d) not faster than delayed miss (end=%d)", warmEnd, coldEnd)
	}
}

// TestArchEquivalencePreserved: delaying never changes results.
func TestArchEquivalencePreserved(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(40, true)
	in := testgadget.BoundsInput(sb)
	in.Regs[4] = 64
	core := newCore()
	testgadget.Run(core, prog, sb, in, testgadget.PrimeInvalidate)
	// The bounds value was 1; the tail register accumulated 40 increments.
	if core.Regs()[1] != 1 {
		t.Errorf("architectural result wrong: R1=%d", core.Regs()[1])
	}
	if core.Regs()[12] != 40 {
		t.Errorf("architectural result wrong: R12=%d", core.Regs()[12])
	}
}
