// Package wasm is the stack-machine ISA frontend: a WebAssembly-flavoured
// i64 subset (value stack plus mutable locals, loads and stores through the
// shared address-masking sandbox, forward-only conditional branches forming
// a DAG, an explicit fence) that lowers onto the µop IR defined by package
// isa. The pipeline past generation — the functional emulator, the contract
// models, the out-of-order simulator — executes only the lowered µops, so
// the frontend exists entirely at generation/mutation time.
//
// The subset is deliberately register-allocatable statically: every
// instruction's operand stack depth is a pure function of its index (blocks
// begin and end at depth zero, branches only join equal-depth points), so
// stack slot d maps to the fixed µop register Reg(6+d) and lowering never
// spills. Locals map to R0..R5, which is how a test case's Input seeds the
// locals, and R14 serves as the lowering scratch register.
package wasm

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// Op identifies a stack-machine opcode.
type Op uint8

// Opcodes. All values are i64; comparisons push 0 or 1.
const (
	OpNop      Op = iota
	OpConst       // push Imm
	OpLocalGet    // push locals[Local]
	OpLocalSet    // locals[Local] = pop
	OpLocalTee    // locals[Local] = top of stack (no pop)
	OpAdd         // pop b, a; push a + b
	OpSub         // pop b, a; push a - b
	OpAnd         // pop b, a; push a & b
	OpOr          // pop b, a; push a | b
	OpXor         // pop b, a; push a ^ b
	OpShl         // pop b, a; push a << (b & 63)
	OpShrU        // pop b, a; push a >> (b & 63) (logical)
	OpMul         // pop b, a; push a * b (low 64 bits)
	OpEqz         // pop a; push a == 0 ? 1 : 0
	OpEq          // pop b, a; push a == b ? 1 : 0
	OpNe          // pop b, a; push a != b ? 1 : 0
	OpLtU         // pop b, a; push a < b (unsigned) ? 1 : 0
	OpGeU         // pop b, a; push a >= b (unsigned) ? 1 : 0
	OpDrop        // pop and discard
	OpSelect      // pop c, v2, v1; push v1 if c != 0 else v2
	OpLoad        // pop addr; push sandbox[(addr+Imm) & mask], Size bytes
	OpStore       // pop val, addr; sandbox[(addr+Imm) & mask] = val, Size bytes
	OpBrIf        // pop c; if c != 0 jump to Target
	OpBr          // jump to Target (validation pins Target to the next index)
	OpFence       // serializing barrier
	numOps
)

var opNames = [...]string{
	OpNop:      "nop",
	OpConst:    "i64.const",
	OpLocalGet: "local.get",
	OpLocalSet: "local.set",
	OpLocalTee: "local.tee",
	OpAdd:      "i64.add",
	OpSub:      "i64.sub",
	OpAnd:      "i64.and",
	OpOr:       "i64.or",
	OpXor:      "i64.xor",
	OpShl:      "i64.shl",
	OpShrU:     "i64.shr_u",
	OpMul:      "i64.mul",
	OpEqz:      "i64.eqz",
	OpEq:       "i64.eq",
	OpNe:       "i64.ne",
	OpLtU:      "i64.lt_u",
	OpGeU:      "i64.ge_u",
	OpDrop:     "drop",
	OpSelect:   "select",
	OpLoad:     "i64.load",
	OpStore:    "i64.store",
	OpBrIf:     "br_if",
	OpBr:       "br",
	OpFence:    "fence",
}

// String returns the wat-style mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsBinALU reports whether o pops two values and pushes their combination
// (arithmetic/logic, not comparisons).
func (o Op) IsBinALU() bool { return o >= OpAdd && o <= OpMul }

// IsCompare reports whether o is a two-operand comparison.
func (o Op) IsCompare() bool { return o >= OpEq && o <= OpGeU }

// IsMem reports whether o accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsControl reports whether o redirects control flow.
func (o Op) IsControl() bool { return o == OpBrIf || o == OpBr }

// stackEffect returns how many values o pops and pushes.
func (o Op) stackEffect() (pops, pushes int) {
	switch o {
	case OpConst, OpLocalGet:
		return 0, 1
	case OpLocalSet, OpDrop, OpBrIf:
		return 1, 0
	case OpLocalTee, OpEqz, OpLoad:
		return 1, 1
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShrU, OpMul,
		OpEq, OpNe, OpLtU, OpGeU:
		return 2, 1
	case OpStore:
		return 2, 0
	case OpSelect:
		return 3, 1
	default: // nop, br, fence
		return 0, 0
	}
}

// Stack-machine geometry. The lowering maps locals and stack slots onto the
// 16 µop registers statically: locals occupy R0..R5 (seeded from the test
// case's input registers), stack slot d occupies Reg(LocalBase+NumLocals+d),
// and R14 is the lowering's scratch register (R15 stays free).
const (
	// NumLocals is the number of mutable locals every program has. Locals
	// are the frontend's "parameters": they start out holding the test
	// case's input register values R0..R5.
	NumLocals = 6
	// MaxStack is the maximum operand stack depth a valid program reaches.
	MaxStack = 8
	// scratchReg is the µop register the lowering uses for materializing
	// comparison results.
	scratchReg = isa.Reg(14)
)

// stackReg returns the µop register backing stack slot d (0 = bottom).
func stackReg(d int) isa.Reg { return isa.Reg(NumLocals + d) }

// localReg returns the µop register backing local l.
func localReg(l uint8) isa.Reg { return isa.Reg(l) }

// Inst is one stack-machine instruction. The zero value is a nop.
type Inst struct {
	Op     Op
	Imm    int64 // i64.const value / load & store address offset
	Local  uint8 // local index for local.get/set/tee
	Size   uint8 // access size in bytes for load/store: 1, 2, 4 or 8
	Target int   // destination instruction index for br_if/br
}

// String renders the instruction in wat-flavoured syntax.
func (in Inst) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConst:
		b.WriteString(" 0x")
		b.WriteString(strconv.FormatUint(uint64(in.Imm), 16))
	case OpLocalGet, OpLocalSet, OpLocalTee:
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(int(in.Local)))
	case OpLoad, OpStore:
		b.WriteString(strconv.Itoa(int(in.Size) * 8))
		b.WriteString(" offset=0x")
		b.WriteString(strconv.FormatUint(uint64(in.Imm), 16))
	case OpBrIf, OpBr:
		b.WriteString(" .L")
		b.WriteString(strconv.Itoa(in.Target))
	}
	return b.String()
}

// Program is one stack-machine test program: a flat instruction sequence
// whose control flow is a forward-only DAG, like the toy frontend's.
type Program struct {
	Insts []Inst

	// NumBlocks records how many basic blocks generation used; metadata.
	NumBlocks int
}

// FrontendName implements isa.SourceProgram.
func (p *Program) FrontendName() string { return Name }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Clone returns a deep copy.
func (p *Program) Clone() *Program {
	q := &Program{Insts: make([]Inst, len(p.Insts)), NumBlocks: p.NumBlocks}
	copy(q.Insts, p.Insts)
	return q
}

// String renders the program with instruction indices as labels.
func (p *Program) String() string {
	var b strings.Builder
	for i, in := range p.Insts {
		fmt.Fprintf(&b, ".L%-3d %s\n", i, in)
	}
	return b.String()
}

// depths returns the operand stack depth at the entry of every instruction
// (and, at index Len, at program exit). Depth is a pure function of the
// instruction index: the fallthrough successor defines it, and Validate
// separately checks that every branch joins an equal-depth point, so the
// linear scan is the whole story.
func (p *Program) depths() ([]int, error) {
	d := make([]int, len(p.Insts)+1)
	depth := 0
	for i, in := range p.Insts {
		d[i] = depth
		pops, pushes := in.Op.stackEffect()
		if depth < pops {
			return nil, fmt.Errorf("inst %d (%s): stack underflow (depth %d, pops %d)", i, in, depth, pops)
		}
		depth += pushes - pops
		if depth > MaxStack {
			return nil, fmt.Errorf("inst %d (%s): stack overflow (depth %d > %d)", i, in, depth, MaxStack)
		}
	}
	d[len(p.Insts)] = depth
	return d, nil
}

// Validate checks structural well-formedness: opcodes and operands in
// range, the stack discipline (no underflow, depth bounded by MaxStack),
// and the branch rules that make static register allocation sound — br_if
// targets are strictly forward and join a point whose depth equals the
// branch's post-pop depth (the program end is always a valid join), and br
// targets are pinned to the next instruction, so it is a no-op jump kept
// only for control-flow variety and every instruction stays reachable.
func (p *Program) Validate() error {
	depths, err := p.depths()
	if err != nil {
		return err
	}
	for i, in := range p.Insts {
		if !in.Op.Valid() {
			return fmt.Errorf("inst %d: invalid opcode %d", i, uint8(in.Op))
		}
		switch in.Op {
		case OpLocalGet, OpLocalSet, OpLocalTee:
			if in.Local >= NumLocals {
				return fmt.Errorf("inst %d (%s): local out of range", i, in)
			}
		case OpLoad, OpStore:
			switch in.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("inst %d (%s): invalid access size %d", i, in, in.Size)
			}
		case OpBrIf:
			if in.Target <= i || in.Target > len(p.Insts) {
				return fmt.Errorf("inst %d (%s): target %d is not strictly forward", i, in, in.Target)
			}
			if in.Target < len(p.Insts) && depths[in.Target] != depths[i]-1 {
				return fmt.Errorf("inst %d (%s): target depth %d != branch depth %d",
					i, in, depths[in.Target], depths[i]-1)
			}
		case OpBr:
			if in.Target != i+1 {
				return fmt.Errorf("inst %d (%s): br target must be the next instruction", i, in)
			}
		}
	}
	return nil
}
