package contract

import (
	"bytes"
	"testing"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// FuzzUsage drives a usage summary through the model's load and store hooks
// with an op sequence decoded from the fuzz input, next to dense per-byte
// models of the loaded and clobbered sets. Loaded, LoadedCount and
// CopyLoaded must agree with the dense models at every reset and at the
// end, and the loaded-word list with every page's bits (CheckLoadedIndex).
// Accesses are steered onto bitset-word, page and sandbox-end boundaries,
// where they straddle and wrap.
func FuzzUsage(f *testing.F) {
	// pages selector, then ops of 3 bytes: op, where, lo.
	f.Add([]byte{0, 6, 4, 4, 5, 4, 6, 6, 4, 4}) // load straddling a bitset word, store into it, load it again
	f.Add([]byte{1, 6, 2, 4, 7, 0, 0, 6, 2, 4}) // load wrapping at the sandbox end, reset, load again
	f.Add([]byte{2, 6, 5, 5, 3, 5, 7, 6, 5, 5}) // the same across a page boundary of 128 pages
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		sb := isa.Sandbox{Pages: []int{1, 2, 128}[data[0]%3]}
		size := sb.Size()
		md := &Model{sb: sb, usage: NewUsage(sb)}
		loaded, clobbered := make([]bool, size), make([]bool, size)
		check := func() {
			t.Helper()
			checkUsageDense(t, md.usage, loaded)
		}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			op, where, lo := ops[0], ops[1], uint64(ops[2])
			// where picks the region: a bitset word's end, a page's end,
			// the sandbox's end, or anywhere.
			var off uint64
			switch where % 4 {
			case 0:
				off = uint64(where)/4*64 + lo%16 - 8
			case 1:
				off = uint64(where)/4*isa.PageSize + lo%16 - 8
			case 2:
				off = size - 8 + lo%16
			default:
				off = uint64(where)<<8 | lo
			}
			off &= sb.Mask()
			n := uint8(1) << ((op >> 1) % 4)
			switch {
			case op%8 == 7:
				check()
				md.usage.Reset()
				clear(loaded)
				clear(clobbered)
			case op%2 == 0:
				md.onLoad(0, isa.DataBase+off, n, 0)
				for k := uint64(0); k < uint64(n); k++ {
					if o := (off + k) & sb.Mask(); !clobbered[o] {
						loaded[o] = true
					}
				}
			default:
				md.onStore(0, isa.DataBase+off, n, 0)
				for k := uint64(0); k < uint64(n); k++ {
					clobbered[(off+k)&sb.Mask()] = true
				}
			}
		}
		check()
	})
}

// checkUsageDense compares u against the dense loaded set: membership, the
// count, the loaded-word list, and CopyLoaded onto a background that
// differs from the source everywhere.
func checkUsageDense(t *testing.T, u *Usage, loaded []bool) {
	t.Helper()
	n := 0
	for off, l := range loaded {
		if u.Loaded(uint64(off)) != l {
			t.Fatalf("Loaded(%#x) = %v, dense model %v", off, !l, l)
		}
		if l {
			n++
		}
	}
	if u.LoadedCount() != n {
		t.Fatalf("LoadedCount = %d, dense model %d", u.LoadedCount(), n)
	}
	if err := u.CheckLoadedIndex(); err != nil {
		t.Fatal(err)
	}
	sb := isa.Sandbox{Pages: len(u.pages)}
	src, dst := isa.NewImage(sb), isa.NewImage(sb)
	src.Reset(isa.StreamFill(1, 0))
	dst.Reset(isa.StreamFill(2, 0))
	want := dst.Dense()
	for off, b := range src.Dense() {
		if loaded[off] {
			want[off] = b
		}
	}
	u.CopyLoaded(dst, src)
	if !bytes.Equal(dst.Dense(), want) {
		t.Fatalf("CopyLoaded differs from the dense model")
	}
}
