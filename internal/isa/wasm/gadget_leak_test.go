package wasm_test

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
	"github.com/sith-lab/amulet-go/internal/testgadget"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// gadgetInput builds the gadget's input: an out-of-bounds idx, the bound in
// memory, and the secret byte at mem[idx]. Everything except the secret is
// identical across inputs, which is what makes the pair contract-equivalent.
func gadgetInput(sb isa.Sandbox, secret byte) *isa.Input {
	in := isa.NewInput(sb)
	in.Regs[0] = 200        // idx, architecturally out of bounds
	in.Regs[1] = 128        // &bound
	in.Mem.SetByte(128, 64) // bound
	in.Mem.SetByte(200, secret)
	return in
}

// TestSpectreV1GadgetLeaksOnBaseline instantiates Definition 2.1 on the
// stack frontend's shipped gadget: two inputs that differ only in the
// secret byte produce identical CT-SEQ contract traces (the out-of-bounds
// branch architecturally skips both loads), yet the unprotected core
// installs a secret-selected cache line transiently — differing µarch
// traces, a contract violation. The same pair under fenceall (speculation
// fully drained) shows identical cache states: the stack-machine leak is a
// baseline property, not a lowering artifact.
func TestSpectreV1GadgetLeaksOnBaseline(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	prog := wasm.SpectreV1Gadget().Lowered()
	// Secrets are chosen so their encoded lines (secret*64) collide with
	// neither the bound's line (addr 128) nor each other.
	inA, inB := gadgetInput(sb, 10), gadgetInput(sb, 60)
	lineA, lineB := uint64(10<<6), uint64(60<<6) // secret-selected lines

	// The pair is contract-equivalent under CT-SEQ: same architectural
	// trace, so a µarch difference is a violation by definition.
	model := contract.NewModel(contract.CTSeq, prog, sb)
	got, _ := model.Collect(inA)
	trA := append(contract.Trace(nil), got...) // the model owns its buffer
	trB, _ := model.Collect(inB)
	if !trA.Equal(trB) {
		t.Fatalf("gadget inputs are not contract-equivalent:\nA: %v\nB: %v", trA, trB)
	}

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	snapA := testgadget.Run(core, prog, sb, inA, testgadget.PrimeInvalidate)
	snapB := testgadget.Run(core, prog, sb, inB, testgadget.PrimeInvalidate)
	if snapA.Stats.Mispredicts == 0 {
		t.Fatalf("gadget did not mispredict; stats: %+v", snapA.Stats)
	}
	if !snapA.HasLine(testgadget.SandboxAddr(lineA)) {
		t.Errorf("baseline input A: transient line %#x not installed; L1D=%#x", lineA, snapA.L1D)
	}
	if !snapB.HasLine(testgadget.SandboxAddr(lineB)) {
		t.Errorf("baseline input B: transient line %#x not installed; L1D=%#x", lineB, snapB.L1D)
	}
	if snapA.EqualCaches(snapB) {
		t.Errorf("baseline: expected differing cache states (Spectre-v1 leak), both=%#x", snapA.L1D)
	}

	// fenceall drains speculation at every instruction: the same pair must
	// leave identical µarch state.
	fcore := uarch.NewCore(uarch.DefaultConfig(), fenceall.New())
	fsnapA := testgadget.Run(fcore, prog, sb, inA, testgadget.PrimeInvalidate)
	fsnapB := testgadget.Run(fcore, prog, sb, inB, testgadget.PrimeInvalidate)
	if !fsnapA.EqualCaches(fsnapB) || !fsnapA.EqualTLB(fsnapB) {
		t.Errorf("fenceall: cache states differ — the sound defense leaks:\nA=%#x\nB=%#x",
			fsnapA.L1D, fsnapB.L1D)
	}
	if fsnapA.HasLine(testgadget.SandboxAddr(lineA)) || fsnapB.HasLine(testgadget.SandboxAddr(lineB)) {
		t.Errorf("fenceall: secret-selected line installed despite drained speculation")
	}
}
