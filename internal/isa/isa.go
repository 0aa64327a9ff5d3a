// Package isa defines AMuLeT-Go's µop intermediate representation and the
// pluggable ISA frontends that generate test programs for it.
//
// The architecture is split in two layers:
//
//   - The µop IR (Program, Inst, EvalALU): a compact, RISC-style 64-bit
//     register instruction set that is rich enough to express every leakage
//     gadget exercised by the AMuLeT paper (Spectre-v1 and v4 patterns,
//     secret-dependent addresses, conditional moves, loads and stores of
//     several widths, conditional branches forming a DAG control-flow graph)
//     while staying simple enough that both the functional emulator (package
//     emu) and the out-of-order simulator (package uarch) implement exactly
//     the same architectural semantics. Everything downstream of generation
//     — contracts, emulation, simulation, defenses, trace comparison — sees
//     only this IR.
//
//   - Frontends (Frontend, SourceProgram): a frontend owns a source-level
//     program representation and knows how to generate, mutate and splice it
//     from seeded random streams, how to lower it to the µop IR, and how to
//     serialize it for checkpoints and repro bundles. The toy register ISA
//     (Toy, the default) is the IR itself with an identity lowering; the
//     WASM-subset stack machine (package isa/wasm, -isa=wasm) is the proof
//     that the seam is real. Frontends self-register by name
//     (RegisterFrontend / FrontendByName).
//
// Memory sandboxing is part of the architecture: the effective address of
// every load and store is wrapped into a per-test memory sandbox, mirroring
// the address-masking (AND reg, 0b111...) that the paper's generator inserts
// before every x86 memory access. Frontends share the sandbox: lowering maps
// source-level accesses onto the same wrapped addressing.
//
// Sandbox content has one representation, Image, shared by the generator,
// the leakage model and the simulator: a page table over a procedural
// background. A random input's memory is a span of the generator's
// counter-based stream, named rather than written down; reads of background
// compute the word they need and never materialize; a write materializes the
// one or two 8-byte words it lands in, not their 4 KB page; and models and
// cores execute on a copy-on-write view, leaving the input unmodified. Input
// cost is thus proportional to the words a test touches, not to the sandbox
// size (the memory model is spelled out in
// image.go). Serialized, an input is still its dense bytes.
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Reg names one of the 16 general-purpose 64-bit registers R0..R15.
type Reg uint8

// NumRegs is the number of architectural general-purpose registers.
const NumRegs = 16

var regNames = [NumRegs]string{
	"R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7",
	"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15",
}

// String returns the assembler name of the register ("R0".."R15").
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return "R" + strconv.Itoa(int(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. ALU operations take either a register (Src2) or an immediate
// operand (Imm, when UseImm is set).
const (
	OpNop    Op = iota
	OpMovImm    // Dst = Imm
	OpMov       // Dst = Src1
	OpAdd       // Dst = Src1 + operand
	OpSub       // Dst = Src1 - operand
	OpAnd       // Dst = Src1 & operand
	OpOr        // Dst = Src1 | operand
	OpXor       // Dst = Src1 ^ operand
	OpShl       // Dst = Src1 << (operand & 63)
	OpShr       // Dst = Src1 >> (operand & 63) (logical)
	OpMul       // Dst = Src1 * operand (low 64 bits)
	OpCmp       // set flags from Src1 - operand, no register result
	OpCmov      // Dst = Src1 if Cond holds, else Dst unchanged
	OpLoad      // Dst = sandbox[(Src1 + Imm) & mask], Size bytes, zero-extended
	OpStore     // sandbox[(Src1 + Imm) & mask] = Src2 (low Size bytes)
	OpBranch    // if Cond holds, jump to Target
	OpJmp       // unconditional jump to Target
	OpFence     // serializing barrier: drains speculation in the OoO core
	numOps
)

var opNames = [...]string{
	OpNop:    "NOP",
	OpMovImm: "MOVI",
	OpMov:    "MOV",
	OpAdd:    "ADD",
	OpSub:    "SUB",
	OpAnd:    "AND",
	OpOr:     "OR",
	OpXor:    "XOR",
	OpShl:    "SHL",
	OpShr:    "SHR",
	OpMul:    "MUL",
	OpCmp:    "CMP",
	OpCmov:   "CMOV",
	OpLoad:   "LD",
	OpStore:  "ST",
	OpBranch: "B",
	OpJmp:    "JMP",
	OpFence:  "FENCE",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsALU reports whether o is a register-to-register computation (including
// CMP and CMOV).
func (o Op) IsALU() bool {
	switch o {
	case OpMovImm, OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpCmp, OpCmov:
		return true
	}
	return false
}

// IsMem reports whether o accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsControl reports whether o redirects control flow.
func (o Op) IsControl() bool { return o == OpBranch || o == OpJmp }

// SetsFlags reports whether the instruction updates the flags register.
// Mirroring x86, arithmetic and logic operations set flags; moves, loads and
// shifts-by-zero semantics are simplified: shifts also set flags.
func (o Op) SetsFlags() bool {
	switch o {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpCmp:
		return true
	}
	return false
}

// Cond is a branch/CMOV condition evaluated against the flags register.
type Cond uint8

// Conditions. Signedness follows the sign flag computed by the last
// flag-setting operation.
const (
	CondEQ Cond = iota // zero flag set
	CondNE             // zero flag clear
	CondLT             // sign flag set (result negative)
	CondGE             // sign flag clear
	CondCS             // carry flag set (unsigned borrow on SUB/CMP)
	CondCC             // carry flag clear
	numConds
)

var condNames = [...]string{
	CondEQ: "EQ",
	CondNE: "NE",
	CondLT: "LT",
	CondGE: "GE",
	CondCS: "CS",
	CondCC: "CC",
}

// String returns the assembler suffix for the condition.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("COND(%d)", uint8(c))
}

// Valid reports whether c is a defined condition.
func (c Cond) Valid() bool { return c < numConds }

// NumConds is the number of defined conditions (exported for the generator).
const NumConds = int(numConds)

// Flags holds the architectural flags register.
type Flags struct {
	Z bool // zero
	S bool // sign (bit 63 of result)
	C bool // carry / unsigned borrow
}

// Eval reports whether condition c holds under flags f.
func (f Flags) Eval(c Cond) bool {
	switch c {
	case CondEQ:
		return f.Z
	case CondNE:
		return !f.Z
	case CondLT:
		return f.S
	case CondGE:
		return !f.S
	case CondCS:
		return f.C
	case CondCC:
		return !f.C
	}
	return false
}

// Inst is a single instruction. The zero value is a NOP.
type Inst struct {
	Op     Op
	Dst    Reg   // destination register (ALU, CMOV, LD)
	Src1   Reg   // first source (ALU), base register (LD/ST)
	Src2   Reg   // second source (ALU), store data (ST)
	Imm    int64 // immediate operand / address displacement
	UseImm bool  // ALU second operand is Imm instead of Src2
	Cond   Cond  // condition for B and CMOV
	Size   uint8 // access size in bytes for LD/ST: 1, 2, 4 or 8
	Target int   // destination instruction index for B and JMP
}

// InstBytes is the architectural size of one encoded instruction. Program
// counters advance by InstBytes per instruction; the instruction stream is
// laid out contiguously from CodeBase, which is what the L1I cache and the
// fetch unit of the simulator observe.
const InstBytes = 4

// CodeBase is the virtual address of the first instruction of a test
// program (cosmetically similar to the paper's 0x40xxxx PCs).
const CodeBase uint64 = 0x400000

// PCOf returns the program counter of the instruction at index idx.
func PCOf(idx int) uint64 { return CodeBase + uint64(idx)*InstBytes }

// ReadsFlags reports whether the instruction consumes the flags register.
func (in Inst) ReadsFlags() bool { return in.Op == OpBranch || in.Op == OpCmov }

// String renders the instruction in assembler syntax. It is built with
// strconv instead of fmt so that rendering a gadget for a violation report
// (or an error) costs no reflection-driven formatting; no simulation path
// calls it for non-violating cases.
func (in Inst) String() string {
	var b strings.Builder
	switch in.Op {
	case OpNop:
		return "NOP"
	case OpFence:
		return "FENCE"
	case OpMovImm:
		b.WriteString("MOVI ")
		b.WriteString(in.Dst.String())
		b.WriteString(", ")
		writeHex(&b, uint64(in.Imm))
	case OpMov:
		b.WriteString("MOV ")
		b.WriteString(in.Dst.String())
		b.WriteString(", ")
		b.WriteString(in.Src1.String())
	case OpCmp:
		b.WriteString("CMP ")
		b.WriteString(in.Src1.String())
		b.WriteString(", ")
		if in.UseImm {
			writeHex(&b, uint64(in.Imm))
		} else {
			b.WriteString(in.Src2.String())
		}
	case OpCmov:
		b.WriteString("CMOV.")
		b.WriteString(in.Cond.String())
		b.WriteByte(' ')
		b.WriteString(in.Dst.String())
		b.WriteString(", ")
		b.WriteString(in.Src1.String())
	case OpLoad:
		b.WriteString("LD.")
		b.WriteString(strconv.Itoa(int(in.Size)))
		b.WriteByte(' ')
		b.WriteString(in.Dst.String())
		b.WriteString(", ")
		writeMemOperand(&b, in.Src1, in.Imm)
	case OpStore:
		b.WriteString("ST.")
		b.WriteString(strconv.Itoa(int(in.Size)))
		b.WriteByte(' ')
		writeMemOperand(&b, in.Src1, in.Imm)
		b.WriteString(", ")
		b.WriteString(in.Src2.String())
	case OpBranch:
		b.WriteString("B.")
		b.WriteString(in.Cond.String())
		b.WriteString(" .L")
		b.WriteString(strconv.Itoa(in.Target))
	case OpJmp:
		b.WriteString("JMP .L")
		b.WriteString(strconv.Itoa(in.Target))
	default:
		b.WriteString(in.Op.String())
		b.WriteByte(' ')
		b.WriteString(in.Dst.String())
		b.WriteString(", ")
		b.WriteString(in.Src1.String())
		b.WriteString(", ")
		if in.UseImm {
			writeHex(&b, uint64(in.Imm))
		} else {
			b.WriteString(in.Src2.String())
		}
	}
	return b.String()
}

// writeHex renders v as %#x does ("0x0", "0x2a", ...).
func writeHex(b *strings.Builder, v uint64) {
	b.WriteString("0x")
	b.WriteString(strconv.FormatUint(v, 16))
}

// writeMemOperand renders a "[Rbase+0xdisp]" operand with a signed,
// always-signed-prefixed displacement, matching fmt's %+#x.
func writeMemOperand(b *strings.Builder, base Reg, imm int64) {
	b.WriteByte('[')
	b.WriteString(base.String())
	if imm < 0 {
		b.WriteString("-0x")
		b.WriteString(strconv.FormatUint(uint64(-imm), 16))
	} else {
		b.WriteString("+0x")
		b.WriteString(strconv.FormatUint(uint64(imm), 16))
	}
	b.WriteByte(']')
}
