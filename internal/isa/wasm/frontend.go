package wasm

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/codec"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Name is the registered name of the stack-machine frontend.
const Name = "wasm"

// Frontend is the stack-machine frontend instance. Importing this package
// registers it, so checkpoint decoding and -isa flag parsing resolve it by
// name.
var Frontend isa.Frontend = frontend{}

func init() { isa.RegisterFrontend(Frontend) }

type frontend struct{}

// Name implements isa.Frontend.
func (frontend) Name() string { return Name }

// Lower implements isa.Frontend.
func (frontend) Lower(src isa.SourceProgram) *isa.Program { return lower(src.(*Program)) }

// The binary form of a stack-machine program, in the primitives of package
// codec (varint: zig-zag varint):
//
//	program := varint NumBlocks | uvarint count | inst*
//	inst    := op byte | Local byte | Size byte | varint Imm | varint Target
//
// Every field is written for every instruction, so each Inst value has
// exactly one encoding. A generated instruction takes 5 bytes unless its
// operand does not fit one varint byte: an i64.const, a load or store
// offset, a branch target past 63.
const minInstBytes = 3 + 1 + 1

// EncodeProgram implements isa.Frontend.
func (frontend) EncodeProgram(b []byte, src isa.SourceProgram) []byte {
	p := src.(*Program)
	b = codec.AppendInt(b, p.NumBlocks)
	b = codec.AppendUvarint(b, uint64(len(p.Insts)))
	for _, in := range p.Insts {
		b = append(b, byte(in.Op), in.Local, in.Size)
		b = codec.AppendVarint(b, in.Imm)
		b = codec.AppendInt(b, in.Target)
	}
	return b
}

// DecodeProgram implements isa.Frontend. The decoded program must pass
// Validate: a resumed campaign lowers and runs it.
func (frontend) DecodeProgram(data []byte) (isa.SourceProgram, error) {
	r := codec.NewReader(data)
	p := &Program{NumBlocks: r.Int()}
	if n := r.Count(minInstBytes); n > 0 {
		p.Insts = make([]Inst, n)
	}
	for i := range p.Insts {
		f := r.Next(3)
		if f == nil {
			break
		}
		p.Insts[i] = Inst{Op: Op(f[0]), Local: f[1], Size: f[2], Imm: r.Varint(), Target: r.Int()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wasm: program decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wasm: program decode: %w", err)
	}
	return p, nil
}

// Generate implements isa.Frontend: programs are up to MaxBlocks basic
// blocks of stack-disciplined instructions. Every block starts and ends at
// operand stack depth zero; all blocks except the last terminate in a
// two-instruction sequence that pushes a condition and br_ifs to a later
// block (or, occasionally, a nop plus a no-op br), so block boundaries are
// always valid branch join points and layout is computable up front.
func (f frontend) Generate(rng isa.RNG, gp isa.GenParams) isa.SourceProgram {
	nInsts := gp.MinInsts + rng.Intn(gp.MaxInsts-gp.MinInsts+1)
	nBlocks := 1 + rng.Intn(gp.MaxBlocks)
	if nBlocks > nInsts/6 {
		nBlocks = nInsts / 6
	}
	if nBlocks < 1 {
		nBlocks = 1
	}
	// Terminators cost 2 instructions per non-final block; keep at least 2
	// body instructions per block.
	for nBlocks > 1 && nInsts-2*(nBlocks-1) < 2*nBlocks {
		nBlocks--
	}

	// Split the body budget across blocks. One allocation holds both block
	// tables.
	tables := make([]int, 2*nBlocks)
	sizes, starts := tables[:nBlocks], tables[nBlocks:]
	for i := range sizes {
		sizes[i] = 2
	}
	for budget := nInsts - 2*(nBlocks-1) - 2*nBlocks; budget > 0; budget-- {
		sizes[rng.Intn(nBlocks)]++
	}

	// Block start indices: body plus the two-instruction terminator.
	idx := 0
	for b := 0; b < nBlocks; b++ {
		starts[b] = idx
		idx += sizes[b]
		if b != nBlocks-1 {
			idx += 2
		}
	}
	end := idx

	p := &Program{Insts: make([]Inst, 0, end), NumBlocks: nBlocks}
	st := genState{}
	for b := 0; b < nBlocks; b++ {
		for k := 0; k < sizes[b]; k++ {
			p.Insts = append(p.Insts, bodyInst(rng, gp, &st, sizes[b]-k))
		}
		if st.depth != 0 {
			panic(fmt.Sprintf("wasm: block %d ended at depth %d", b, st.depth))
		}
		if b == nBlocks-1 {
			break
		}
		// Terminator: push a condition and branch to a random later block,
		// or occasionally a no-op jump to the next block for CFG variety.
		targetBlock := b + 1 + rng.Intn(nBlocks-b-1)
		if targetBlock == b+1 && rng.Intn(4) == 0 {
			p.Insts = append(p.Insts, Inst{Op: OpNop}, Inst{Op: OpBr, Target: starts[b+1]})
		} else {
			p.Insts = append(p.Insts,
				Inst{Op: OpLocalGet, Local: uint8(rng.Intn(NumLocals))},
				Inst{Op: OpBrIf, Target: starts[targetBlock]})
		}
	}
	if len(p.Insts) != end {
		panic(fmt.Sprintf("wasm: generation layout mismatch %d != %d", len(p.Insts), end))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("wasm: generation produced invalid program: %v", err))
	}
	return p
}

// genState threads generation context through a block body: the current
// operand stack depth and whether the top of stack holds a freshly loaded
// value (the hook ChainBias uses to build load-after-load address chains).
type genState struct {
	depth     int
	topLoaded bool
}

// bodyInst draws one body instruction. remaining is how many body slots are
// left in the block including this one; the invariant depth <= remaining-1
// after every instruction guarantees the block can always wind down to
// depth zero (one pop per instruction suffices), so blocks never need a
// separate drain phase.
func bodyInst(rng isa.RNG, gp isa.GenParams, st *genState, remaining int) Inst {
	// canHold: a zero-delta instruction keeps the current depth, which the
	// wind-down invariant (depth <= slots left) must still admit. canPush
	// additionally grows the stack by one.
	canHold := st.depth <= remaining-1
	canPush := st.depth < MaxStack && st.depth+1 <= remaining-1

	// A loaded value on top of the stack is an address waiting to happen:
	// with probability ChainBias, consume it immediately with another load —
	// the "encode a loaded value in an address" pattern cache side channels
	// need (the stack machine's equivalent of the toy frontend's chained
	// base registers).
	if st.topLoaded && st.depth >= 1 && canHold && rng.Float64() < gp.ChainBias {
		return finish(st, Inst{Op: OpLoad, Imm: addrImm(rng, gp), Size: randSize(rng)})
	}

	type cand struct {
		op Op
		w  int
	}
	// At most 12 candidates are added below; the backing array stays on the
	// stack, so drawing an instruction allocates nothing.
	var buf [12]cand
	cands := buf[:0]
	add := func(op Op, w int) {
		if w > 0 {
			cands = append(cands, cand{op, w})
		}
	}
	if canPush {
		add(OpConst, gp.WeightALU)
		add(OpLocalGet, gp.WeightALU)
	}
	if st.depth >= 1 {
		add(OpLocalSet, gp.WeightALU)
		add(OpDrop, 1)
		if canHold {
			add(OpLocalTee, gp.WeightALU/2)
			add(OpEqz, gp.WeightCmp)
			add(OpLoad, gp.WeightLoad)
		}
	}
	if st.depth >= 2 {
		add(OpAdd, 2*gp.WeightALU) // stands for the whole binop family
		add(OpEq, gp.WeightCmp)    // stands for the comparison family
		add(OpStore, gp.WeightStore)
	}
	if st.depth >= 3 {
		add(OpSelect, gp.WeightCmov)
	}
	if canHold {
		add(OpFence, gp.WeightFence)
	}

	if len(cands) == 0 {
		return finish(st, Inst{Op: OpNop})
	}
	total := 0
	for _, c := range cands {
		total += c.w
	}
	r := rng.Intn(total)
	var op Op
	for _, c := range cands {
		if r < c.w {
			op = c.op
			break
		}
		r -= c.w
	}

	switch op {
	case OpConst:
		return finish(st, Inst{Op: OpConst, Imm: constImm(rng, gp)})
	case OpLocalGet, OpLocalSet, OpLocalTee:
		return finish(st, Inst{Op: op, Local: uint8(rng.Intn(NumLocals))})
	case OpAdd:
		binops := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShrU, OpMul}
		return finish(st, Inst{Op: binops[rng.Intn(len(binops))]})
	case OpEq:
		cmps := []Op{OpEq, OpNe, OpLtU, OpGeU}
		return finish(st, Inst{Op: cmps[rng.Intn(len(cmps))]})
	case OpLoad, OpStore:
		return finish(st, Inst{Op: op, Imm: addrImm(rng, gp), Size: randSize(rng)})
	default: // eqz, drop, select, fence
		return finish(st, Inst{Op: op})
	}
}

// finish applies in's stack effect to st and returns it.
func finish(st *genState, in Inst) Inst {
	pops, pushes := in.Op.stackEffect()
	st.depth += pushes - pops
	st.topLoaded = in.Op == OpLoad
	return in
}

// constImm draws an i64.const operand: half the time a sandbox offset (so
// constants compose into addresses), otherwise a broad-spectrum value.
func constImm(rng isa.RNG, gp isa.GenParams) int64 {
	if rng.Intn(2) == 0 {
		return int64(rng.Intn(int(gp.Sandbox.Size())))
	}
	return int64(rng.Uint64() >> rng.Intn(60))
}

// addrImm draws a load/store address offset inside the sandbox.
func addrImm(rng isa.RNG, gp isa.GenParams) int64 {
	return int64(rng.Intn(int(gp.Sandbox.Size())))
}

func randSize(rng isa.RNG) uint8 {
	switch rng.Intn(6) {
	case 0:
		return 1
	case 1:
		return 2
	case 2, 3:
		return 4
	default:
		return 8
	}
}

// maxMutations bounds how many point mutations one derivation applies.
const maxMutations = 3

// Mutate implements isa.Frontend: 1..maxMutations point mutations that all
// preserve the stack discipline by construction — they swap ops within
// equal-stack-effect families, re-draw immediates and access sizes, and
// retarget br_ifs only to equal-depth join points.
func (f frontend) Mutate(rng isa.RNG, gp isa.GenParams, src isa.SourceProgram) isa.SourceProgram {
	q := src.(*Program).Clone()
	n := 1 + rng.Intn(maxMutations)
	for k := 0; k < n; k++ {
		switch rng.Intn(4) {
		case 0:
			flipOp(rng, q)
		case 1:
			redrawImm(rng, gp, q)
		case 2:
			flipSize(rng, q)
		default:
			retargetBrIf(rng, q)
		}
	}
	if err := q.Validate(); err != nil {
		// Mutators preserve validity by construction; this is a guard rail,
		// and the fallback stays deterministic (same stream).
		return f.Generate(rng, gp)
	}
	return q
}

// choose draws one of the indices in [lo, hi) that satisfy ok, uniformly:
// exactly the draw — rng.Intn(n) over the n candidates in increasing
// order — that indexing a collected list of them would make, without
// collecting them. With no candidate it draws nothing and returns -1.
func choose(rng isa.RNG, lo, hi int, ok func(int) bool) int {
	n := 0
	for i := lo; i < hi; i++ {
		if ok(i) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := rng.Intn(n)
	for i := lo; ; i++ {
		if ok(i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
}

// flipOp swaps one instruction within its stack-effect family: binops among
// binops, comparisons among comparisons.
func flipOp(rng isa.RNG, q *Program) {
	i := choose(rng, 0, q.Len(), func(i int) bool {
		return q.Insts[i].Op.IsBinALU() || q.Insts[i].Op.IsCompare()
	})
	if i < 0 {
		return
	}
	if q.Insts[i].Op.IsBinALU() {
		binops := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShrU, OpMul}
		q.Insts[i].Op = binops[rng.Intn(len(binops))]
	} else {
		cmps := []Op{OpEq, OpNe, OpLtU, OpGeU}
		q.Insts[i].Op = cmps[rng.Intn(len(cmps))]
	}
}

// redrawImm re-draws one i64.const operand.
func redrawImm(rng isa.RNG, gp isa.GenParams, q *Program) {
	if i := choose(rng, 0, q.Len(), func(i int) bool { return q.Insts[i].Op == OpConst }); i >= 0 {
		q.Insts[i].Imm = constImm(rng, gp)
	}
}

// flipSize re-draws one memory access's width and offset, re-aiming which
// sandbox region (and how much of it) the access touches.
func flipSize(rng isa.RNG, q *Program) {
	if i := choose(rng, 0, q.Len(), func(i int) bool { return q.Insts[i].Op.IsMem() }); i >= 0 {
		q.Insts[i].Size = randSize(rng)
	}
}

// joinAfter draws the new target of the br_if at i: a later instruction at
// the branch's post-pop depth, or the program end, which is always a valid
// join.
func joinAfter(rng isa.RNG, q *Program, depths []int, i int) int {
	want := depths[i] - 1
	return choose(rng, i+1, q.Len()+1, func(t int) bool { return t == q.Len() || depths[t] == want })
}

// retargetBrIf moves one br_if to a different equal-depth join point,
// usually further forward — a longer not-taken path means a deeper
// speculation window when the branch mispredicts.
func retargetBrIf(rng isa.RNG, q *Program) {
	depths, err := q.depths()
	if err != nil {
		return
	}
	if i := choose(rng, 0, q.Len(), func(i int) bool { return q.Insts[i].Op == OpBrIf }); i >= 0 {
		q.Insts[i].Target = joinAfter(rng, q, depths, i)
	}
}

// Splice implements isa.Frontend: a prefix of a cut at a depth-zero point
// joined with a suffix of b cut at a depth-zero point, so the stack
// discipline survives the join; branch targets in the offspring are then
// repaired to land on equal-depth join points.
func (f frontend) Splice(rng isa.RNG, gp isa.GenParams, sa, sb isa.SourceProgram) isa.SourceProgram {
	a, b := sa.(*Program), sb.(*Program)
	if a.Len() < 2 || b.Len() < 2 {
		return f.Mutate(rng, gp, a)
	}
	da, errA := a.depths()
	db, errB := b.depths()
	if errA != nil || errB != nil {
		return f.Generate(rng, gp)
	}
	// Cut points are depth-zero points: a's after its first instruction up
	// to its end, b's before any of its instructions — b[0] always is one,
	// every program starting on an empty stack.
	cutA := choose(rng, 1, a.Len()+1, func(i int) bool { return da[i] == 0 })
	if cutA < 0 {
		return f.Generate(rng, gp)
	}
	cutB := choose(rng, 0, b.Len(), func(i int) bool { return db[i] == 0 })
	q := &Program{Insts: make([]Inst, 0, cutA+b.Len()-cutB)}
	q.Insts = append(q.Insts, a.Insts[:cutA]...)
	q.Insts = append(q.Insts, b.Insts[cutB:]...)
	if q.Len() > gp.MaxInsts || q.Len() < 1 {
		return f.Generate(rng, gp)
	}
	repairTargets(rng, q)
	if err := q.Validate(); err != nil {
		return f.Generate(rng, gp)
	}
	return q
}

// repairTargets rewrites control targets the splice invalidated: br is
// pinned back to the next instruction, and br_ifs whose targets went
// backward, out of range or to a different depth are re-aimed at a later
// equal-depth join point. It also recounts basic blocks.
func repairTargets(rng isa.RNG, q *Program) {
	depths, err := q.depths()
	if err != nil {
		return // Validate will reject; caller falls back to Generate
	}
	blocks := 1
	for i := range q.Insts {
		in := &q.Insts[i]
		if !in.Op.IsControl() {
			continue
		}
		blocks++
		if in.Op == OpBr {
			in.Target = i + 1
			continue
		}
		if in.Target > i && in.Target <= q.Len() &&
			(in.Target == q.Len() || depths[in.Target] == depths[i]-1) {
			continue
		}
		in.Target = joinAfter(rng, q, depths, i)
	}
	q.NumBlocks = blocks
}
