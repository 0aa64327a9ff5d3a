package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// TestTLBMatchesThreeScan drives the one-scan TLB access (Touch, Install
// and Hierarchy.TranslateData with install on and off) and the three-scan
// oracle of export_test.go through the same random sequences, with
// InvalidateAll and Restore mixed in, and requires identical hit results,
// victims, entries, useTick and mutation flag after every step. Page
// numbers are drawn from about twice the TLB's reach, so it runs full and
// evicts.
func TestTLBMatchesThreeScan(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64} {
		t.Run(fmt.Sprintf("entries=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			cfg := DefaultHierConfig()
			cfg.TLBEntries = n
			h := NewHierarchy(cfg)
			got, ref := h.DTLB, NewTLB(n)
			var gotSaved, refSaved TLBState
			got.SaveInto(&gotSaved)
			ref.SaveInto(&refSaved)
			for step := 0; step < 20000; step++ {
				page := uint64(rng.Intn(2*n + 1))
				var op string
				var gotOut, refOut [3]uint64
				switch r := rng.Intn(100); {
				case r < 30:
					op = "Touch"
					gotOut[0] = b2u(got.Touch(page))
					refOut[0] = b2u(ref.refTouch(page))
				case r < 60:
					op = "Install"
					v, ev := got.Install(page)
					gotOut[1], gotOut[2] = v, b2u(ev)
					v, ev = ref.refInstall(page)
					refOut[1], refOut[2] = v, b2u(ev)
				case r < 94:
					install := r < 80
					op = fmt.Sprintf("TranslateData(install=%v)", install)
					lat, hit := h.TranslateData(0, page*isa.PageSize+uint64(rng.Intn(isa.PageSize)), install)
					gotOut[0], gotOut[1] = b2u(hit), uint64(lat)
					refOut[0] = b2u(ref.refTranslate(page, install))
					if refOut[0] == 0 {
						refOut[1] = uint64(cfg.LatTLBWalk)
					}
				case r < 95:
					op = "InvalidateAll"
					got.InvalidateAll()
					ref.InvalidateAll()
				case r < 97:
					op = "SaveInto"
					got.SaveInto(&gotSaved)
					ref.SaveInto(&refSaved)
				default:
					op = "Restore"
					got.Restore(&gotSaved)
					ref.Restore(&refSaved)
				}
				if gotOut != refOut {
					t.Fatalf("step %d %s(%d): (hit, victim|latency, evicted) = %v, three-scan oracle %v", step, op, page, gotOut, refOut)
				}
				if !slices.Equal(got.entries, ref.entries) || got.useTick != ref.useTick {
					t.Fatalf("step %d %s(%d): state diverged\none-scan   tick=%d %v\nthree-scan tick=%d %v",
						step, op, page, got.useTick, got.entries, ref.useTick, ref.entries)
				}
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
