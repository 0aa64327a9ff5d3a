package checkpoint

import (
	"fmt"
	"reflect"
)

// The equality the round-trip tests compare records with. Every field is a
// value, inputs included — they are held in their canonical binary form —
// so reflect.DeepEqual compares what a record says.

// SameResult exports sameResult to the external round-trip test.
var SameResult = sameResult

// sameResult reports whether two result records hold the same value.
func sameResult(a, b *ResultRec) bool { return reflect.DeepEqual(a, b) }

// sameState reports whether two states hold the same value; nil is "no
// checkpoint yet".
func sameState(a, b *State) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// describe renders a state's shape for a failure message.
func describe(st *State) string {
	if st == nil {
		return "no checkpoint"
	}
	return fmt.Sprintf("%d units, %d corpus entries, %d coverage words, %d epochs done", len(st.Units), len(st.Corpus), len(st.Coverage), st.EpochsDone)
}
