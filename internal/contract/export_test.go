package contract

// SetReference selects between the specialized predecoded interpreter
// (fastmodel.go, what every campaign runs) and the hook-driven emulator
// path it is specified against. The two are bit-identical;
// TestFastModelEquivalence compares them.
func (md *Model) SetReference(on bool) { md.reference = on }
