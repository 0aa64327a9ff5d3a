package uarch

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// TestByteSpanMatchesByteSets checks the ring-arithmetic overlaps, covers
// and extractForward against the byte-set loops of export_test.go for every
// size pair in {1,2,4,8}² and every pair of start offsets within 16 bytes of
// each other, with the first offset within 16 bytes of the sandbox's wrap
// point or of a page boundary, on 1- and 128-page sandboxes.
func TestByteSpanMatchesByteSets(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	rng := rand.New(rand.NewSource(1))
	for _, pages := range []int{1, 128} {
		sb := isa.Sandbox{Pages: pages}
		size := sb.Size()
		anchors := []uint64{0, isa.PageSize / 2}
		if pages > 1 {
			anchors = append(anchors, isa.PageSize, size/2)
		}
		t.Run(fmt.Sprintf("pages=%d", pages), func(t *testing.T) {
			for _, anchor := range anchors {
				for da := int64(-16); da <= 16; da++ {
					aOff := (anchor + uint64(da)) & sb.Mask()
					for db := int64(-16); db <= 16; db++ {
						bOff := (aOff + uint64(db)) & sb.Mask()
						for _, an := range sizes {
							for _, bn := range sizes {
								checkSpans(t, sb, aOff, an, bOff, bn, rng.Uint64())
							}
						}
					}
				}
			}
		})
	}
}

func checkSpans(t *testing.T, sb isa.Sandbox, aOff uint64, an uint8, bOff uint64, bn uint8, val uint64) {
	t.Helper()
	a, b := spanOf(sb, isa.DataBase+aOff, an), spanOf(sb, isa.DataBase+bOff, bn)
	ra, rb := refSpanOf(sb, isa.DataBase+aOff, an), refSpanOf(sb, isa.DataBase+bOff, bn)
	where := fmt.Sprintf("a=%d bytes at %#x, b=%d bytes at %#x", an, aOff, bn, bOff)
	if a.off != ra.off[0] || a.n != uint64(ra.n) {
		t.Fatalf("%s: span (%#x, %d), byte set starts at %#x with %d bytes", where, a.off, a.n, ra.off[0], ra.n)
	}
	if got, want := a.overlaps(&b), ra.overlaps(&rb); got != want {
		t.Fatalf("%s: a.overlaps(b) = %v, byte sets say %v", where, got, want)
	}
	if got, want := b.overlaps(&a), rb.overlaps(&ra); got != want {
		t.Fatalf("%s: b.overlaps(a) = %v, byte sets say %v", where, got, want)
	}
	if got, want := a.covers(&b), ra.covers(&rb); got != want {
		t.Fatalf("%s: a.covers(b) = %v, byte sets say %v", where, got, want)
	}
	if got, want := b.covers(&a), rb.covers(&ra); got != want {
		t.Fatalf("%s: b.covers(a) = %v, byte sets say %v", where, got, want)
	}
	if ra.covers(&rb) {
		if got, want := extractForward(&a, &b, val), refExtractForward(&ra, &rb, val); got != want {
			t.Fatalf("%s: forwarding %#x gives %#x, byte sets give %#x", where, val, got, want)
		}
	}
}
