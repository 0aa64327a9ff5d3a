package isa

import "fmt"

// ToyName is the registered name of the built-in toy RISC frontend.
const ToyName = "toy"

// Toy is the built-in register frontend: the toy RISC ISA this package
// defines, generated and mutated exactly as the pre-frontend generator did
// (the code below moved here verbatim — same draws from the same stream in
// the same order, which is what keeps the toy golden fingerprints
// bit-identical across the frontend extraction). Its source programs ARE
// µop programs, so Lower is the identity and the toy path gains no
// per-program work at all.
var Toy Frontend = toyFrontend{}

func init() { RegisterFrontend(Toy) }

// FrontendName marks *Program as the toy frontend's source representation.
func (p *Program) FrontendName() string { return ToyName }

type toyFrontend struct{}

// Name implements Frontend.
func (toyFrontend) Name() string { return ToyName }

// Lower implements Frontend: toy source programs are already µop programs.
func (toyFrontend) Lower(src SourceProgram) *Program { return src.(*Program) }

// EncodeProgram implements Frontend: a toy source program is a µop
// program, stored in Program's binary form.
func (toyFrontend) EncodeProgram(b []byte, src SourceProgram) []byte {
	b, _ = src.(*Program).AppendBinary(b) // never fails
	return b
}

// DecodeProgram implements Frontend.
func (toyFrontend) DecodeProgram(data []byte) (SourceProgram, error) {
	p := &Program{}
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}

// Generate implements Frontend: programs are up to MaxBlocks basic blocks
// of randomly selected instructions linked into a directed acyclic
// control-flow graph, with all memory accesses confined to the sandbox.
func (toyFrontend) Generate(rng RNG, gp GenParams) SourceProgram {
	nInsts := gp.MinInsts + rng.Intn(gp.MaxInsts-gp.MinInsts+1)
	nBlocks := 1 + rng.Intn(gp.MaxBlocks)
	if nBlocks > nInsts/4 {
		nBlocks = nInsts / 4
	}
	if nBlocks < 1 {
		nBlocks = 1
	}

	// Split the body budget across blocks (each block additionally gets a
	// terminator except the last). One allocation holds both block tables.
	tables := make([]int, 2*nBlocks)
	sizes, starts := tables[:nBlocks], tables[nBlocks:]
	for i := range sizes {
		sizes[i] = 2
	}
	for budget := nInsts - 3*nBlocks; budget > 0; budget-- {
		sizes[rng.Intn(nBlocks)]++
	}

	// Lay out block start indices: each block is body + 1 terminator
	// (conditional branch or jump), except the last which falls off the end.
	idx := 0
	for b := 0; b < nBlocks; b++ {
		starts[b] = idx
		idx += sizes[b]
		if b != nBlocks-1 {
			idx++ // terminator slot
		}
	}
	end := idx

	p := &Program{Insts: make([]Inst, 0, end), NumBlocks: nBlocks}
	lastLoaded := Reg(0)
	haveLoaded := false
	for b := 0; b < nBlocks; b++ {
		for k := 0; k < sizes[b]; k++ {
			p.Insts = append(p.Insts, toyBodyInst(rng, gp, &lastLoaded, &haveLoaded))
		}
		if b == nBlocks-1 {
			break
		}
		// Terminator: a conditional branch to a random later block (its
		// fallthrough is the next block), or occasionally a plain jump.
		targetBlock := b + 1 + rng.Intn(nBlocks-b-1)
		target := starts[targetBlock]
		if targetBlock == b+1 || rng.Intn(8) == 0 {
			// Jump either to the next block (a no-op jump, kept for CFG
			// variety) or skip ahead unconditionally.
			if rng.Intn(4) == 0 {
				p.Insts = append(p.Insts, Jmp(target))
			} else {
				p.Insts = append(p.Insts, Branch(toyRandCond(rng), target))
			}
		} else {
			p.Insts = append(p.Insts, Branch(toyRandCond(rng), target))
		}
	}
	if len(p.Insts) != end {
		panic(fmt.Sprintf("isa: toy generation layout mismatch %d != %d", len(p.Insts), end))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("isa: toy generation produced invalid program: %v", err))
	}
	return p
}

func toyRandCond(rng RNG) Cond { return Cond(rng.Intn(NumConds)) }

func toyRandReg(rng RNG) Reg { return Reg(rng.Intn(NumRegs)) }

func toyRandSize(rng RNG) uint8 {
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

func toyBodyInst(rng RNG, gp GenParams, lastLoaded *Reg, haveLoaded *bool) Inst {
	total := gp.WeightALU + gp.WeightLoad + gp.WeightStore +
		gp.WeightCmp + gp.WeightCmov + gp.WeightFence
	r := rng.Intn(total)

	memBase := func() Reg {
		if *haveLoaded && rng.Float64() < gp.ChainBias {
			return *lastLoaded
		}
		return toyRandReg(rng)
	}
	imm := func() int64 { return int64(rng.Intn(int(gp.Sandbox.Size()))) }

	switch {
	case r < gp.WeightALU:
		ops := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpMov, OpMovImm}
		op := ops[rng.Intn(len(ops))]
		switch op {
		case OpMovImm:
			return MovImm(toyRandReg(rng), int64(rng.Uint64()>>rng.Intn(60)))
		case OpMov:
			return Mov(toyRandReg(rng), toyRandReg(rng))
		case OpShl, OpShr:
			return ALUImm(op, toyRandReg(rng), toyRandReg(rng), int64(rng.Intn(12)))
		default:
			if rng.Intn(2) == 0 {
				return ALUImm(op, toyRandReg(rng), toyRandReg(rng), int64(rng.Intn(4096)))
			}
			return ALU(op, toyRandReg(rng), toyRandReg(rng), toyRandReg(rng))
		}
	case r < gp.WeightALU+gp.WeightLoad:
		dst := toyRandReg(rng)
		in := Load(dst, memBase(), imm(), toyRandSize(rng))
		*lastLoaded = dst
		*haveLoaded = true
		return in
	case r < gp.WeightALU+gp.WeightLoad+gp.WeightStore:
		return Store(memBase(), imm(), toyRandReg(rng), toyRandSize(rng))
	case r < gp.WeightALU+gp.WeightLoad+gp.WeightStore+gp.WeightCmp:
		if rng.Intn(2) == 0 {
			return CmpImm(toyRandReg(rng), int64(rng.Intn(256)))
		}
		return Cmp(toyRandReg(rng), toyRandReg(rng))
	case r < gp.WeightALU+gp.WeightLoad+gp.WeightStore+gp.WeightCmp+gp.WeightCmov:
		return Cmov(toyRandCond(rng), toyRandReg(rng), toyRandReg(rng))
	default:
		return Fence()
	}
}

// maxToyMutations bounds how many point mutations one derivation applies.
const maxToyMutations = 3

// Mutate implements Frontend: it derives a mutant of src by applying
// 1..maxToyMutations point mutations (op flip, cond flip, window stretch,
// input-region reshuffle). Mutants always satisfy Program.Validate: targets
// stay strictly forward, registers and sizes are never invented — the
// mutators only recombine and perturb material generation itself emits.
func (f toyFrontend) Mutate(rng RNG, gp GenParams, src SourceProgram) SourceProgram {
	q := src.(*Program).Clone()
	n := 1 + rng.Intn(maxToyMutations)
	for k := 0; k < n; k++ {
		switch rng.Intn(4) {
		case 0:
			toyFlipOp(rng, q)
		case 1:
			toyFlipCond(rng, q)
		case 2:
			toyStretchWindow(rng, q)
		default:
			toyReshuffleInputRegions(rng, gp, q)
		}
	}
	if err := q.Validate(); err != nil {
		// Mutators preserve validity by construction; this is a guard rail,
		// and the fallback stays deterministic (same stream).
		return f.Generate(rng, gp)
	}
	return q
}

// Splice implements Frontend: a prefix of a joined with a suffix of b,
// control-flow targets repaired to stay strictly forward. The offspring
// length is drawn from the configured bounds, so splicing never grows
// programs beyond what plain generation produces.
func (f toyFrontend) Splice(rng RNG, gp GenParams, sa, sb SourceProgram) SourceProgram {
	a, b := sa.(*Program), sb.(*Program)
	if a.Len() < 2 || b.Len() < 2 {
		return f.Mutate(rng, gp, a)
	}
	want := gp.MinInsts + rng.Intn(gp.MaxInsts-gp.MinInsts+1)
	cut := 1 + rng.Intn(a.Len()-1)
	if cut > want {
		cut = want
	}
	tail := want - cut
	if tail > b.Len() {
		tail = b.Len()
	}
	q := &Program{NumBlocks: a.NumBlocks}
	q.Insts = append(q.Insts, a.Insts[:cut]...)
	q.Insts = append(q.Insts, b.Insts[b.Len()-tail:]...)
	toyRepairTargets(rng, q)
	if err := q.Validate(); err != nil {
		return f.Generate(rng, gp)
	}
	return q
}

// toyRepairTargets retargets control instructions whose targets the splice
// made backward or out of range, keeping the DAG property.
func toyRepairTargets(rng RNG, p *Program) {
	n := p.Len()
	blocks := 1
	for i := range p.Insts {
		in := &p.Insts[i]
		if !in.Op.IsControl() {
			continue
		}
		blocks++
		if in.Target <= i || in.Target > n {
			in.Target = i + 1 + rng.Intn(n-i)
		}
	}
	p.NumBlocks = blocks
}

// toyFlipOp perturbs one instruction's operation: ALU ops swap within the
// commutative arithmetic/logic set, memory accesses change width, and
// immediates get re-drawn.
func toyFlipOp(rng RNG, p *Program) {
	i := rng.Intn(p.Len())
	in := &p.Insts[i]
	switch {
	case in.Op == OpMovImm:
		in.Imm = int64(rng.Uint64() >> rng.Intn(60))
	case in.Op == OpAdd || in.Op == OpSub || in.Op == OpAnd ||
		in.Op == OpOr || in.Op == OpXor || in.Op == OpMul:
		alts := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul}
		in.Op = alts[rng.Intn(len(alts))]
	case in.Op.IsMem():
		in.Size = toyRandSize(rng)
	default:
		// Shift, cmp, cmov, fence, control: perturb the immediate where one
		// exists, otherwise leave the instruction alone.
		if in.UseImm {
			in.Imm = int64(rng.Intn(4096))
		}
	}
}

// toyFlipCond re-draws the condition of one conditional branch or cmov,
// changing which paths mispredict and how deep speculation runs.
func toyFlipCond(rng RNG, p *Program) {
	var idxs []int
	for i, in := range p.Insts {
		if in.Op == OpBranch || in.Op == OpCmov {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return
	}
	p.Insts[idxs[rng.Intn(len(idxs))]].Cond = toyRandCond(rng)
}

// toyStretchWindow retargets one conditional branch, usually further
// forward: a longer not-taken path means more instructions execute under
// the branch shadow when it mispredicts — a deeper speculation window.
func toyStretchWindow(rng RNG, p *Program) {
	var idxs []int
	for i, in := range p.Insts {
		if in.Op == OpBranch {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return
	}
	i := idxs[rng.Intn(len(idxs))]
	in := &p.Insts[i]
	n := p.Len()
	if rng.Intn(4) > 0 {
		// Stretch: move the target forward of where it is now.
		if in.Target < n {
			in.Target += 1 + rng.Intn(n-in.Target)
		}
	} else {
		// Occasionally re-draw anywhere forward, for CFG variety.
		in.Target = i + 1 + rng.Intn(n-i)
	}
}

// toyReshuffleInputRegions permutes the address offsets across the
// program's memory accesses (and re-draws one), re-aiming which sandbox
// regions the accesses touch without changing the dependence structure.
func toyReshuffleInputRegions(rng RNG, gp GenParams, p *Program) {
	var idxs []int
	for i, in := range p.Insts {
		if in.Op.IsMem() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < 2 {
		return
	}
	perm := rng.Perm(len(idxs))
	offs := make([]int64, len(idxs))
	for k, i := range idxs {
		offs[k] = p.Insts[i].Imm
	}
	for k, i := range idxs {
		p.Insts[i].Imm = offs[perm[k]]
	}
	p.Insts[idxs[rng.Intn(len(idxs))]].Imm = int64(rng.Intn(int(gp.Sandbox.Size())))
}
