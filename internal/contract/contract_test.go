package contract

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sith-lab/amulet-go/internal/isa"
)

func TestTraceHashAndEqual(t *testing.T) {
	a := Trace{{ObsPC, 1}, {ObsLoadAddr, 2}}
	b := Trace{{ObsPC, 1}, {ObsLoadAddr, 2}}
	c := Trace{{ObsPC, 1}, {ObsStoreAddr, 2}}
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Errorf("equal traces must hash equal")
	}
	if a.Equal(c) {
		t.Errorf("kind must participate in equality")
	}
	if a.Hash() == c.Hash() {
		t.Errorf("kind must participate in the hash")
	}
	if a.Equal(a[:1]) {
		t.Errorf("length must participate in equality")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"CT-SEQ", "CT-COND", "ARCH-SEQ"} {
		c, err := ByName(name)
		if err != nil || c.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, c.Name, err)
		}
	}
	if _, err := ByName("CT-FOO"); err == nil {
		t.Errorf("unknown contract accepted")
	}
}

// spectreProgram is a v1 gadget: arch-taken branch, transient load chain.
func spectreProgram() *isa.Program {
	return &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),      // 0
		isa.CmpImm(1, 0),          // 1
		isa.Branch(isa.CondNE, 5), // 2: taken when mem[0] != 0
		isa.Load(2, 9, 0, 8),      // 3: transient under CT-COND
		isa.Nop(),                 // 4
		isa.MovImm(3, 1),          // 5
	}}
}

func boundsInput(sb isa.Sandbox) *isa.Input {
	in := isa.NewInput(sb)
	in.Mem.SetByte(0, 1)
	return in
}

func TestCTSeqObservesArchPathOnly(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	md := NewModel(CTSeq, spectreProgram(), sb)
	in := boundsInput(sb)
	in.Regs[9] = 0x100
	tr, _ := md.Collect(in)

	// Arch path: insts 0,1,2,5 -> 4 PCs, 1 load.
	pcs, loads := 0, 0
	for _, o := range tr {
		switch o.Kind {
		case ObsPC:
			pcs++
		case ObsLoadAddr:
			loads++
		}
	}
	if pcs != 4 || loads != 1 {
		t.Errorf("CT-SEQ observed pcs=%d loads=%d, want 4,1 (%v)", pcs, loads, tr)
	}

	// The transient register must not influence the CT-SEQ trace.
	in2 := boundsInput(sb)
	in2.Regs[9] = 0x900
	tr2, _ := md.Collect(in2)
	if !tr.Equal(tr2) {
		t.Errorf("CT-SEQ trace depends on a speculatively used register")
	}
}

func TestCTCondObservesWrongPath(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	md := NewModel(CTCond, spectreProgram(), sb)
	in := boundsInput(sb)
	in.Regs[9] = 0x100
	tr, _ := md.Collect(in)

	in2 := boundsInput(sb)
	in2.Regs[9] = 0x900
	tr2, _ := md.Collect(in2)
	// The wrong-path load address differs, so CT-COND traces must differ:
	// this leak is contract-allowed under CT-COND.
	if tr.Equal(tr2) {
		t.Errorf("CT-COND must observe the mispredicted path's load")
	}
}

func TestArchSeqObservesValuesAndRegs(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	md := NewModel(ArchSeq, spectreProgram(), sb)
	inA := boundsInput(sb)
	inB := boundsInput(sb)
	inB.Regs[9] = 77 // dead register, but ARCH-SEQ observes initial registers
	trA, _ := md.Collect(inA)
	trB, _ := md.Collect(inB)
	if trA.Equal(trB) {
		t.Errorf("ARCH-SEQ must observe initial register values")
	}

	// Loaded-value sensitivity: change a loaded byte that CT-SEQ ignores.
	inC := boundsInput(sb)
	inC.Mem.SetByte(0, 2) // still non-zero: same path, same addresses
	trC, _ := md.Collect(inC)
	if trA.Equal(trC) {
		t.Errorf("ARCH-SEQ must observe loaded values")
	}
	mdSeq := NewModel(CTSeq, spectreProgram(), sb)
	sA, _ := mdSeq.Collect(inA)
	sC, _ := mdSeq.Collect(inC)
	if !sA.Equal(sC) {
		t.Errorf("CT-SEQ must not observe loaded values")
	}
}

func TestUsageTracksLoadedBytesAndLiveRegs(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	md := NewModel(CTSeq, spectreProgram(), sb)
	in := boundsInput(sb)
	_, usage := md.Collect(in)

	for k := uint64(0); k < 8; k++ {
		if !usage.Loaded(k) {
			t.Errorf("byte %d loaded architecturally but not tracked", k)
		}
	}
	if !usage.RegLiveIn(0) {
		t.Errorf("R0 is live-in (load base)")
	}
	if usage.RegLiveIn(9) {
		t.Errorf("R9 is only read transiently; must not be live-in")
	}
	if usage.RegLiveIn(3) {
		t.Errorf("R3 is written before any read; must not be live-in")
	}
}

func TestUsageClobberedBytesNotLoaded(t *testing.T) {
	// Store to [64] then load from [64]: the initial content of [64] never
	// reaches architectural data flow, so it must stay mutable (the
	// Spectre-v4 secret channel).
	p := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xff),
		isa.Store(0, 64, 1, 8),
		isa.Load(2, 0, 64, 8),
	}}
	sb := isa.Sandbox{Pages: 1}
	md := NewModel(CTSeq, p, sb)
	_, usage := md.Collect(isa.NewInput(sb))
	for k := uint64(64); k < 72; k++ {
		if usage.Loaded(k) {
			t.Errorf("clobbered-then-loaded byte %d marked as loaded", k)
		}
	}
}

// TestModelDeterminism: collecting the same input twice yields the same
// trace (the model is reused across inputs).
func TestModelDeterminism(t *testing.T) {
	sb := isa.Sandbox{Pages: 2}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := spectreProgram()
		in := isa.NewInput(sb)
		for i := range in.Regs {
			in.Regs[i] = rng.Uint64()
		}
		in.Mem.FillFrom(rng)
		for _, c := range []Contract{CTSeq, CTCond, ArchSeq} {
			md := NewModel(c, p, sb)
			t1, _ := md.Collect(in)
			t2, _ := md.Collect(in)
			if !t1.Equal(t2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestModelTruncationCounted pins the MaxSteps budget: a program that loops
// past it must be cut off AND counted. Before the counter existed the
// truncation was silent — the trace just ended — which this test would have
// caught.
func TestModelTruncationCounted(t *testing.T) {
	// A two-instruction architectural loop: the backward jump never exits,
	// so the model must stop at MaxSteps.
	prog := &isa.Program{Insts: []isa.Inst{
		isa.ALUImm(isa.OpAdd, 0, 0, 1),
		isa.Jmp(0),
	}}
	sb := isa.Sandbox{Pages: 1}
	in := isa.NewInput(sb)
	for _, c := range []Contract{CTSeq, CTCond, ArchSeq} {
		md := NewModel(c, prog, sb)
		tr, _ := md.Collect(in)
		if md.Truncated() != 1 {
			t.Fatalf("%s: Truncated()=%d, want 1", c.Name, md.Truncated())
		}
		pcs := 0
		for _, o := range tr {
			if o.Kind == ObsPC {
				pcs++
			}
		}
		if pcs != MaxSteps {
			t.Fatalf("%s: trace has %d PC obs, want exactly MaxSteps=%d", c.Name, pcs, MaxSteps)
		}
		// A second, well-behaved run must not inflate the counter.
		exit := &isa.Program{Insts: []isa.Inst{isa.Nop()}}
		md.Load(exit, sb)
		md.Collect(in)
		if md.Truncated() != 0 {
			t.Fatalf("%s: clean run counted a truncation", c.Name)
		}
	}
}

// TestSpeculationDoesNotCorruptArchState: CT-COND exploration must leave
// the architectural results identical to CT-SEQ's.
func TestSpeculationDoesNotCorruptArchState(t *testing.T) {
	sb := isa.Sandbox{Pages: 1}
	p := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),
		isa.CmpImm(1, 0),
		isa.Branch(isa.CondNE, 6),
		isa.MovImm(2, 1),
		isa.Store(0, 128, 2, 8), // transient store: must be rolled back
		isa.Nop(),
		isa.Load(3, 0, 128, 8), // arch load of the (untouched) location
	}}
	in := boundsInput(sb)
	seq := NewModel(CTSeq, p, sb)
	cond := NewModel(CTCond, p, sb)
	trSeq, _ := seq.Collect(in)
	trCond, _ := cond.Collect(in)

	// Verify via the *last* load's value under ARCH-SEQ: the architectural
	// load of [128] must read 0, not the transient store's 1.
	arch := NewModel(ArchSeq, p, sb)
	trArch, _ := arch.Collect(in)
	last := uint64(0xdead)
	for _, o := range trArch {
		if o.Kind == ObsLoadVal {
			last = o.V
		}
	}
	if last != 0 {
		t.Errorf("transient store leaked into architectural state: final load = %#x", last)
	}
	_ = trSeq
	_ = trCond
}
