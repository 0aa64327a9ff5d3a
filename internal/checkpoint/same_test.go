package checkpoint

import (
	"fmt"
	"reflect"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// The by-value equality the round-trip tests compare records with. Inputs
// are compared by what they hold — registers, geometry, background and
// written-down words — since two equal inputs may differ in page storage
// (stale words past a page's have mask, spare lists, slab ownership);
// everything else with reflect.DeepEqual.

// SameResult exports sameResult to the external round-trip test.
var SameResult = sameResult

// sameInput reports whether two inputs hold the same value.
func sameInput(a, b *isa.Input) bool {
	if a == nil || b == nil {
		return a == b
	}
	words := func(in *isa.Input) string {
		var s []uint64
		in.Mem.Written(func(off, w uint64) { s = append(s, off, w) })
		return fmt.Sprint(s)
	}
	return a.Regs == b.Regs && a.Mem.Sandbox() == b.Mem.Sandbox() &&
		a.Mem.Background() == b.Mem.Background() && words(a) == words(b)
}

// sameResult reports whether two result records hold the same value.
func sameResult(a, b *ResultRec) bool {
	if len(a.Violations) != len(b.Violations) {
		return false
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		if !sameInput(va.InputA, vb.InputA) || !sameInput(va.InputB, vb.InputB) {
			return false
		}
		va.InputA, va.InputB, vb.InputA, vb.InputB = nil, nil, nil, nil
		if !reflect.DeepEqual(va, vb) {
			return false
		}
	}
	ra, rb := *a, *b
	ra.Violations, rb.Violations = nil, nil
	return reflect.DeepEqual(ra, rb)
}

// sameState reports whether two states hold the same value; nil is "no
// checkpoint yet".
func sameState(a, b *State) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Units) != len(b.Units) {
		return false
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if !sameResult(&ua.Result, &ub.Result) {
			return false
		}
		ua.Result, ub.Result = ResultRec{}, ResultRec{}
		if !reflect.DeepEqual(ua, ub) {
			return false
		}
	}
	sa, sb := *a, *b
	sa.Units, sb.Units = nil, nil
	return reflect.DeepEqual(sa, sb)
}

// describe renders a state's shape for a failure message.
func describe(st *State) string {
	if st == nil {
		return "no checkpoint"
	}
	return fmt.Sprintf("%d units, %d corpus entries, %d coverage words, %d epochs done", len(st.Units), len(st.Corpus), len(st.Coverage), st.EpochsDone)
}
