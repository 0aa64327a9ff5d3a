package fenceall_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestBlocksAllSpeculativeAccesses: neither the load nor the store variant
// of the Spectre-v1 gadget changes any observable µarch state.
func TestBlocksAllSpeculativeAccesses(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	for _, storeVariant := range []bool{false, true} {
		prog := testgadget.SpectreV1MemSecret(140, storeVariant)
		mk := func(secret uint64) *isa.Input {
			in := testgadget.BoundsInput(sb)
			in.Regs[4] = 64
			for k := 0; k < 8; k++ {
				in.Mem.SetByte(uint64(64+k), byte(secret>>(8*k)))
			}
			return in
		}
		core := uarch.NewCore(uarch.DefaultConfig(), fenceall.New())
		snapA := testgadget.Run(core, prog, sb, mk(0x140), testgadget.PrimeFill)
		snapB := testgadget.Run(core, prog, sb, mk(0xa40), testgadget.PrimeFill)
		if !snapA.EqualCaches(snapB) || !snapA.EqualTLB(snapB) {
			t.Errorf("FenceAll leaked (storeVariant=%v)", storeVariant)
		}
	}
}

// TestSlowerThanBaseline: the conservative design pays for its security.
func TestSlowerThanBaseline(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := testgadget.SpectreV1MemSecret(40, false)
	in := testgadget.BoundsInput(sb)
	in.Regs[4] = 64

	fenced := uarch.NewCore(uarch.DefaultConfig(), fenceall.New())
	base := uarch.NewCore(uarch.DefaultConfig(), nil)
	endF := testgadget.Run(fenced, prog, sb, in, testgadget.PrimeInvalidate).EndCycle
	endB := testgadget.Run(base, prog, sb, in, testgadget.PrimeInvalidate).EndCycle
	if endF < endB {
		t.Errorf("FenceAll (%d cycles) faster than baseline (%d)?", endF, endB)
	}
}
