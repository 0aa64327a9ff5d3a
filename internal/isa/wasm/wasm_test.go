package wasm

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// testRNG adapts math/rand/v2 to isa.RNG for tests (the production streams
// live in the generator package; any deterministic source works here).
type testRNG struct{ r *rand.Rand }

func newTestRNG(seed uint64) *testRNG {
	return &testRNG{r: rand.New(rand.NewPCG(seed, 0))}
}

func (t *testRNG) Intn(n int) int   { return t.r.IntN(n) }
func (t *testRNG) Uint64() uint64   { return t.r.Uint64() }
func (t *testRNG) Float64() float64 { return t.r.Float64() }
func (t *testRNG) Perm(n int) []int { return t.r.Perm(n) }

func testParams() isa.GenParams {
	return isa.GenParams{
		MinInsts:    8,
		MaxInsts:    48,
		MaxBlocks:   6,
		Sandbox:     isa.Sandbox{Pages: 2},
		WeightALU:   10,
		WeightLoad:  6,
		WeightStore: 3,
		WeightCmp:   4,
		WeightCmov:  2,
		WeightFence: 1,
		ChainBias:   0.4,
	}
}

// TestGenerateValidAndLowerable: every generated program validates and
// lowers to a valid µop program (lower panics otherwise), across many seeds
// and through mutation and splicing.
func TestGenerateValidAndLowerable(t *testing.T) {
	gp := testParams()
	rng := newTestRNG(1)
	var prev isa.SourceProgram
	for i := 0; i < 500; i++ {
		src := Frontend.Generate(rng, gp)
		if err := src.Validate(); err != nil {
			t.Fatalf("program %d invalid: %v\n%s", i, err, src)
		}
		q := Frontend.Lower(src)
		if err := q.Validate(); err != nil {
			t.Fatalf("program %d lowered invalid: %v", i, err)
		}
		mut := Frontend.Mutate(rng, gp, src)
		if err := mut.Validate(); err != nil {
			t.Fatalf("mutant %d invalid: %v\n%s", i, err, mut)
		}
		Frontend.Lower(mut)
		if prev != nil {
			spl := Frontend.Splice(rng, gp, prev, src)
			if err := spl.Validate(); err != nil {
				t.Fatalf("splice %d invalid: %v\n%s", i, err, spl)
			}
			Frontend.Lower(spl)
		}
		prev = src
	}
}

// TestGenerateDeterministic: the same seed yields the same program.
func TestGenerateDeterministic(t *testing.T) {
	gp := testParams()
	a := Frontend.Generate(newTestRNG(7), gp)
	b := Frontend.Generate(newTestRNG(7), gp)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different programs:\n%s\nvs\n%s", a, b)
	}
}

// TestEncodeDecodeRoundTrip: programs survive the checkpoint codec.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	gp := testParams()
	rng := newTestRNG(3)
	for i := 0; i < 50; i++ {
		src := Frontend.Generate(rng, gp)
		data, err := Frontend.EncodeProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Frontend.DecodeProgram(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("round-trip mismatch:\n%s\nvs\n%s", got, src)
		}
	}
}

// TestRegistered: the package registers itself under its name.
func TestRegistered(t *testing.T) {
	f, err := isa.FrontendByName(Name)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != Name {
		t.Fatalf("registered frontend name %q", f.Name())
	}
}

// refRun executes a stack program directly — a value stack, locals seeded
// from the input's R0..R5, memory through the shared sandbox semantics —
// and returns the final locals and memory. It is the source-level reference
// the lowering is checked against.
func refRun(t *testing.T, p *Program, sb isa.Sandbox, in *isa.Input) ([NumLocals]uint64, []byte) {
	t.Helper()
	var locals [NumLocals]uint64
	copy(locals[:], in.Regs[:NumLocals])
	mem := isa.NewImage(sb)
	mem.ViewOf(&in.Mem)
	var stack []uint64
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for pc := 0; pc < len(p.Insts); {
		in := p.Insts[pc]
		next := pc + 1
		switch in.Op {
		case OpNop, OpFence:
		case OpConst:
			stack = append(stack, uint64(in.Imm))
		case OpLocalGet:
			stack = append(stack, locals[in.Local])
		case OpLocalSet:
			locals[in.Local] = pop()
		case OpLocalTee:
			locals[in.Local] = stack[len(stack)-1]
		case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShrU, OpMul:
			b, a := pop(), pop()
			var v uint64
			switch in.Op {
			case OpAdd:
				v = a + b
			case OpSub:
				v = a - b
			case OpAnd:
				v = a & b
			case OpOr:
				v = a | b
			case OpXor:
				v = a ^ b
			case OpShl:
				v = a << (b & 63)
			case OpShrU:
				v = a >> (b & 63)
			case OpMul:
				v = a * b
			}
			stack = append(stack, v)
		case OpEqz:
			stack[len(stack)-1] = bit(stack[len(stack)-1] == 0)
		case OpEq:
			b, a := pop(), pop()
			stack = append(stack, bit(a == b))
		case OpNe:
			b, a := pop(), pop()
			stack = append(stack, bit(a != b))
		case OpLtU:
			b, a := pop(), pop()
			stack = append(stack, bit(a < b))
		case OpGeU:
			b, a := pop(), pop()
			stack = append(stack, bit(a >= b))
		case OpDrop:
			pop()
		case OpSelect:
			c, v2, v1 := pop(), pop(), pop()
			if c != 0 {
				stack = append(stack, v1)
			} else {
				stack = append(stack, v2)
			}
		case OpLoad:
			addr := pop()
			stack = append(stack, mem.Read(sb.EffAddr(addr, in.Imm), in.Size))
		case OpStore:
			val := pop()
			addr := pop()
			mem.Write(sb.EffAddr(addr, in.Imm), in.Size, val)
		case OpBrIf:
			if pop() != 0 {
				next = in.Target
			}
		case OpBr:
			next = in.Target
		default:
			t.Fatalf("refRun: unknown op %v", in.Op)
		}
		pc = next
	}
	return locals, mem.Dense()
}

// TestLoweringEquivalence: running the lowered µop program on the
// functional emulator reproduces the reference stack semantics — same final
// locals (R0..R5) and same final memory — across many random programs and
// inputs. This is the architectural correctness proof of the lowering.
func TestLoweringEquivalence(t *testing.T) {
	gp := testParams()
	rng := newTestRNG(99)
	sb := gp.Sandbox
	for i := 0; i < 300; i++ {
		src := Frontend.Generate(rng, gp).(*Program)
		low := Frontend.Lower(src)
		in := isa.NewInput(sb)
		for r := range in.Regs {
			in.Regs[r] = rng.Uint64()
		}
		for off := uint64(0); off < sb.Size(); off++ {
			in.Mem.SetByte(off, byte(rng.Uint64()))
		}

		wantLocals, wantMem := refRun(t, src, sb, in)

		m := emu.New(low, sb, in)
		if err := m.Run(10 * low.Len() * 4); err != nil {
			t.Fatalf("program %d: emu: %v\n%s", i, err, src)
		}
		var gotLocals [NumLocals]uint64
		copy(gotLocals[:], m.Regs[:NumLocals])
		if gotLocals != wantLocals {
			t.Fatalf("program %d: locals diverge\nref %v\nemu %v\nsource:\n%s\nlowered:\n%s",
				i, wantLocals, gotLocals, src, low)
		}
		if !reflect.DeepEqual(m.Mem.Dense(), wantMem) {
			t.Fatalf("program %d: memory diverges\nsource:\n%s\nlowered:\n%s", i, src, low)
		}
	}
}

// TestGadgetShape: the shipped gadget validates and lowers, and its
// bounds check behaves architecturally — in-bounds runs the loads,
// out-of-bounds skips them.
func TestGadgetShape(t *testing.T) {
	g := SpectreV1Gadget()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	low := g.Lowered()
	sb := isa.Sandbox{Pages: 1}

	for _, tc := range []struct {
		idx       uint64
		wantLoads int
	}{
		{idx: 5, wantLoads: 3},   // bound + secret + transmit
		{idx: 200, wantLoads: 1}, // bound only: branch skips the leak
	} {
		in := isa.NewInput(sb)
		in.Regs[0] = tc.idx
		in.Regs[1] = 128        // &bound
		in.Mem.SetByte(128, 64) // bound
		m := emu.New(low, sb, in)
		loads := 0
		m.Hooks.OnLoad = func(pc, addr uint64, size uint8, val uint64) { loads++ }
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		if loads != tc.wantLoads {
			t.Errorf("idx %d: %d architectural loads, want %d", tc.idx, loads, tc.wantLoads)
		}
	}
}
