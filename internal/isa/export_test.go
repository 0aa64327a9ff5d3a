package isa

// Test-only helpers no shipped code calls.

// IndexOf returns the instruction index for program counter pc and whether
// pc is a valid, aligned code address at or above CodeBase.
func IndexOf(pc uint64) (int, bool) {
	if pc < CodeBase || (pc-CodeBase)%InstBytes != 0 {
		return 0, false
	}
	return int((pc - CodeBase) / InstBytes), true
}
