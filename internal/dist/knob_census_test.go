package dist_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/dist"
)

// TestDistKnobCensus pins the exported, settable fields of the distributed
// layer's configuration — CoordinatorConfig, WorkerConfig and Client — as
// engine's TestKnobCensus pins a campaign's on/off options. A setting that
// only tests change is an unexported field set through export_test.go, and
// one that has a single value everywhere is a constant, so adding a knob
// here is a reviewed line with its reason, not a side effect.
func TestDistKnobCensus(t *testing.T) {
	want := []string{
		// The campaign itself, fingerprinted at join.
		"CoordinatorConfig.Campaign",
		"WorkerConfig.Campaign",
		// amulet-coordinator's -lease-ttl; bench sets it per scale.
		"CoordinatorConfig.LeaseTTL",
		// amulet-worker's -coordinator and -name.
		"WorkerConfig.Coordinator",
		"WorkerConfig.Name",
		// Where events go; the CLIs pass their loggers.
		"CoordinatorConfig.Log",
		"WorkerConfig.Log",
	}
	var got []string
	for _, typ := range []reflect.Type{
		reflect.TypeFor[dist.CoordinatorConfig](),
		reflect.TypeFor[dist.WorkerConfig](),
		reflect.TypeFor[dist.Client](),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.Name()+"."+f.Name)
			}
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("exported fields of the dist configuration:\n got %q\nwant %q", got, want)
	}
}
