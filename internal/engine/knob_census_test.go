package engine

import (
	"reflect"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// TestKnobCensus pins the set of on/off options a campaign configuration
// carries: every bool (or *bool) field reachable from fuzzer.Config — the
// value campaignFingerprint digests — must be on the list below. Each
// independent switch doubles the configurations the determinism suite and
// the benchmark have to cover, so adding one is a reviewed line here, with
// its reason, rather than a side effect of a perf PR; reference paths kept
// for tests belong behind the owning package's export_test.go instead.
func TestKnobCensus(t *testing.T) {
	want := []string{
		// What the campaign tests: the contract's observation and execution
		// clauses, and the campaign's own shape.
		"Contract.ObservePC",
		"Contract.ObserveMemAddr",
		"Contract.ObserveLoadVal",
		"Contract.ObserveInitRegs",
		"Contract.SpecBranches",
		"StopOnFirstViolation",
		// Derived from the generation strategy, never set by hand.
		"Exec.Coverage",
		// The two remaining reference-path selectors. bench/replica.go
		// compiles against both, so they outlive the PR that retired the
		// other seven; see docs/removal-ledger.md.
		"Exec.FullPrime",
		"Gen.LegacyRand",
	}
	var got []string
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := path + f.Name
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch ft.Kind() {
			case reflect.Bool:
				got = append(got, name)
			case reflect.Struct:
				walk(ft, name+".")
			}
		}
	}
	walk(reflect.TypeOf(fuzzer.Config{}), "")
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("bool options reachable from fuzzer.Config:\n got %q\nwant %q", got, want)
	}
}
