package isa

// This file is the single source of truth for the architectural execution
// semantics of ALU operations. Both the functional emulator (package emu)
// and the out-of-order simulator (package uarch) call EvalALU, so the two
// engines cannot drift apart.

// EvalALU computes the result and flags of an ALU operation with operands a
// and b (b is the immediate when UseImm is set on the instruction; the
// caller resolves that). prevFlags is the incoming flags value, returned
// unchanged for operations that do not set flags. oldDst is the prior value
// of the destination register, consumed by CMOV.
//
// The returned writesReg reports whether the destination register is
// written (false for CMP, and for CMOV whose condition fails the register
// is rewritten with its old value, so writesReg stays true with
// result == oldDst; this keeps dependence tracking in the simulator simple
// and matches x86 CMOV semantics, which always writes the destination).
func EvalALU(op Op, cond Cond, a, b, oldDst uint64, prevFlags Flags) (result uint64, flags Flags, writesReg bool) {
	flags = prevFlags
	writesReg = true
	switch op {
	case OpMovImm:
		result = b
	case OpMov:
		result = a
	case OpAdd:
		result = a + b
		flags = arithFlags(result, result < a)
	case OpSub:
		result = a - b
		flags = arithFlags(result, a < b)
	case OpAnd:
		result = a & b
		flags = logicFlags(result)
	case OpOr:
		result = a | b
		flags = logicFlags(result)
	case OpXor:
		result = a ^ b
		flags = logicFlags(result)
	case OpShl:
		result = a << (b & 63)
		flags = logicFlags(result)
	case OpShr:
		result = a >> (b & 63)
		flags = logicFlags(result)
	case OpMul:
		result = a * b
		flags = logicFlags(result)
	case OpCmp:
		r := a - b
		flags = arithFlags(r, a < b)
		writesReg = false
	case OpCmov:
		if prevFlags.Eval(cond) {
			result = a
		} else {
			result = oldDst
		}
	default:
		// NOP, FENCE and control/memory ops have no ALU semantics.
		writesReg = false
	}
	return result, flags, writesReg
}

// arithFlags returns the flags an arithmetic operation (ADD, SUB, CMP) sets:
// zero and sign from the result, carry as computed by the operation.
func arithFlags(result uint64, carry bool) Flags {
	return Flags{Z: result == 0, S: result>>63 == 1, C: carry}
}

// logicFlags returns the flags a logic/shift/multiply operation sets: zero
// and sign from the result, carry cleared.
func logicFlags(result uint64) Flags {
	return Flags{Z: result == 0, S: result>>63 == 1, C: false}
}
