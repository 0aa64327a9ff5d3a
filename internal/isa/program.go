package isa

import (
	"fmt"
	"strings"

	"github.com/sith-lab/amulet-go/internal/codec"
)

// Program is a test program: a flat instruction sequence. Control flow is a
// DAG (the generator only emits forward branches), so execution always
// terminates; the program exits when the PC walks past the last instruction.
type Program struct {
	Insts []Inst

	// NumBlocks records how many basic blocks the generator used. It is
	// metadata only and does not affect semantics.
	NumBlocks int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Validate checks structural well-formedness: register names in range,
// access sizes valid, branch targets inside [0, Len()] and strictly forward
// (DAG property). It returns the first problem found.
func (p *Program) Validate() error {
	for i, in := range p.Insts {
		if !in.Op.Valid() {
			return fmt.Errorf("inst %d: invalid opcode %d", i, uint8(in.Op))
		}
		if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
			return fmt.Errorf("inst %d (%s): register out of range", i, in)
		}
		if in.Op.IsMem() {
			switch in.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("inst %d (%s): invalid access size %d", i, in, in.Size)
			}
		}
		if in.Op.IsControl() {
			if in.Target <= i || in.Target > len(p.Insts) {
				return fmt.Errorf("inst %d (%s): target %d is not strictly forward", i, in, in.Target)
			}
			if !in.Cond.Valid() {
				return fmt.Errorf("inst %d (%s): invalid condition", i, in)
			}
		}
		if in.Op == OpCmov && !in.Cond.Valid() {
			return fmt.Errorf("inst %d (%s): invalid condition", i, in)
		}
	}
	return nil
}

// String renders the whole program with instruction indices as labels,
// matching the violation reports in the paper's figures.
func (p *Program) String() string {
	var b strings.Builder
	for i, in := range p.Insts {
		fmt.Fprintf(&b, ".L%-3d %s\n", i, in)
	}
	return b.String()
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := &Program{Insts: make([]Inst, len(p.Insts)), NumBlocks: p.NumBlocks}
	copy(q.Insts, p.Insts)
	return q
}

// Convenience constructors, used by tests, examples and the generator.

// Nop returns a NOP instruction.
func Nop() Inst { return Inst{Op: OpNop} }

// Fence returns a serializing FENCE instruction.
func Fence() Inst { return Inst{Op: OpFence} }

// MovImm returns Dst = imm.
func MovImm(dst Reg, imm int64) Inst { return Inst{Op: OpMovImm, Dst: dst, Imm: imm} }

// Mov returns Dst = Src.
func Mov(dst, src Reg) Inst { return Inst{Op: OpMov, Dst: dst, Src1: src} }

// ALU returns a three-register ALU operation dst = src1 op src2.
func ALU(op Op, dst, src1, src2 Reg) Inst {
	return Inst{Op: op, Dst: dst, Src1: src1, Src2: src2}
}

// ALUImm returns an ALU operation with an immediate: dst = src1 op imm.
func ALUImm(op Op, dst, src1 Reg, imm int64) Inst {
	return Inst{Op: op, Dst: dst, Src1: src1, Imm: imm, UseImm: true}
}

// CmpImm returns a flag-setting compare of src1 against an immediate.
func CmpImm(src1 Reg, imm int64) Inst {
	return Inst{Op: OpCmp, Src1: src1, Imm: imm, UseImm: true}
}

// Cmp returns a flag-setting compare of src1 against src2.
func Cmp(src1, src2 Reg) Inst { return Inst{Op: OpCmp, Src1: src1, Src2: src2} }

// Cmov returns a conditional move dst = src1 if cond.
func Cmov(cond Cond, dst, src Reg) Inst {
	return Inst{Op: OpCmov, Cond: cond, Dst: dst, Src1: src}
}

// Load returns a load of size bytes: dst = mem[base+imm].
func Load(dst, base Reg, imm int64, size uint8) Inst {
	return Inst{Op: OpLoad, Dst: dst, Src1: base, Imm: imm, Size: size}
}

// Store returns a store of size bytes: mem[base+imm] = data.
func Store(base Reg, imm int64, data Reg, size uint8) Inst {
	return Inst{Op: OpStore, Src1: base, Imm: imm, Src2: data, Size: size}
}

// Branch returns a conditional branch to instruction index target.
func Branch(cond Cond, target int) Inst {
	return Inst{Op: OpBranch, Cond: cond, Target: target}
}

// Jmp returns an unconditional jump to instruction index target.
func Jmp(target int) Inst { return Inst{Op: OpJmp, Target: target} }

// The binary form of a µop program, as checkpoint and wire records carry a
// violation's lowered program (and, the toy frontend's source programs
// being µop programs, its EncodeProgram form):
//
//	program := varint NumBlocks | uvarint count | inst*
//	inst    := op | dst | src1 | src2 | cond | size | imm? (0|1) | varint Imm | varint Target
const minInstBytes = 7 + 1 + 1

// AppendBinary implements encoding.BinaryAppender. It never fails.
func (p *Program) AppendBinary(b []byte) ([]byte, error) {
	b = codec.AppendInt(b, p.NumBlocks)
	b = codec.AppendUvarint(b, uint64(len(p.Insts)))
	for _, in := range p.Insts {
		b = append(b, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(in.Cond), in.Size)
		b = codec.AppendBool(b, in.UseImm)
		b = codec.AppendVarint(b, in.Imm)
		b = codec.AppendInt(b, in.Target)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded
// program must pass Validate: it is replayed, so a malformed one is refused
// here rather than where it runs.
func (p *Program) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	q := Program{NumBlocks: r.Int()}
	if n := r.Count(minInstBytes); n > 0 {
		q.Insts = make([]Inst, n)
	}
	for i := range q.Insts {
		f := r.Next(6)
		if f == nil {
			break
		}
		q.Insts[i] = Inst{Op: Op(f[0]), Dst: Reg(f[1]), Src1: Reg(f[2]), Src2: Reg(f[3]), Cond: Cond(f[4]), Size: f[5],
			UseImm: r.Bool(), Imm: r.Varint(), Target: r.Int()}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("isa: program: %w", err)
	}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("isa: program: %w", err)
	}
	*p = q
	return nil
}
