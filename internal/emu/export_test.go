package emu

// Test-only accessors no shipped code calls.

// Steps returns the number of instructions executed since the last
// LoadInput (including speculatively executed, not-yet-rolled-back ones).
func (m *Machine) Steps() int { return m.steps }

// SpecDepth returns the number of active checkpoints.
func (m *Machine) SpecDepth() int { return len(m.checkpoints) }
