package isa

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
)

// written lists an image's written-down words as (offset, value) pairs.
func written(im *Image) [][2]uint64 {
	var out [][2]uint64
	im.Written(func(off, w uint64) { out = append(out, [2]uint64{off, w}) })
	return out
}

// TestInputBinaryRoundTrip: an input decodes to the same registers,
// background and written words — the same sparse value, not just the same
// bytes — and re-encodes to the bytes it came from. The encoding is as
// sparse as the input: a 128-page input that wrote two words (one of them
// straddling a page) is a few dozen bytes, a legacy dense one every word.
func TestInputBinaryRoundTrip(t *testing.T) {
	sparse := NewInput(Sandbox{Pages: 128})
	sparse.Regs[5], sparse.Regs[15] = 0xabc, ^uint64(0)
	sparse.Mem.Reset(StreamFill(0x1234, 77))
	sparse.Mem.Write(DataBase+PageSize-3, 8, 0x1122334455667788)
	sparse.Mem.Write(DataBase+100*PageSize, 1, 0x5a)

	dense := NewInput(Sandbox{Pages: 2})
	if err := dense.Mem.FillFrom(bytes.NewReader(bytes.Repeat([]byte{1, 2, 3}, 3*PageSize))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		in      *Input
		maxSize int
	}{
		{"zero", NewInput(Sandbox{Pages: 1}), 20},
		{"sparse 128 pages", sparse, 120},
		{"dense 2 pages", dense, 2 * (PageSize + 80)},
	} {
		enc, err := tc.in.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > tc.maxSize {
			t.Errorf("%s: %d bytes, want at most %d", tc.name, len(enc), tc.maxSize)
		}
		back := &Input{}
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.Regs != tc.in.Regs || back.Mem.Sandbox() != tc.in.Mem.Sandbox() ||
			back.Mem.Background() != tc.in.Mem.Background() ||
			fmt.Sprint(written(&back.Mem)) != fmt.Sprint(written(&tc.in.Mem)) ||
			!bytes.Equal(back.Mem.Dense(), tc.in.Mem.Dense()) {
			t.Errorf("%s: input does not survive its binary round trip", tc.name)
		}
		again, _ := back.AppendBinary(nil)
		if !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding changed the bytes", tc.name)
		}
	}
}

// TestInputUnmarshalRejects: anything the encoder does not write fails to
// decode, and fails CheckInput too — before, a record with a wrong-sized
// input decoded and panicked when replayed.
func TestInputUnmarshalRejects(t *testing.T) {
	in := NewInput(Sandbox{Pages: 2})
	in.Mem.Write(DataBase+PageSize+8, 8, 7)
	good, _ := in.AppendBinary(nil)
	if err := (&Input{}).UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
	if sb, err := CheckInput(good); err != nil || sb.Pages != 2 {
		t.Fatalf("CheckInput(good) = %v, %v", sb, err)
	}
	// good: pages 2 | 16 zero regs | fill 0 | 1 page | index 1 | mask 1 | mask word | word
	const pageAt = 1 + NumRegs + 1 + 1
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[at:], b)
		return out
	}
	for name, data := range map[string][]byte{
		"empty":               nil,
		"zero pages":          patch(0, 0),
		"three pages":         patch(0, 3),
		"1024 pages":          append([]byte{0x80, 0x08}, good[1:]...),
		"non-minimal varint":  append([]byte{0x82, 0x00}, good[1:]...),
		"fill flag 2":         patch(1+NumRegs, 2),
		"page index 2":        patch(pageAt, 2),
		"empty page":          patch(pageAt+1, 0),
		"zero mask word":      patch(pageAt+2, 0),
		"more pages than fit": patch(pageAt-1, 2),
		"truncated":           good[:len(good)-1],
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"count past the end":  append(append([]byte(nil), good[:pageAt-1]...), 0xff, 0xff, 0x03),
	} {
		if err := (&Input{}).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if _, err := CheckInput(data); err == nil {
			t.Errorf("%s: passed CheckInput", name)
		}
	}
}

// TestSlabInputsAreIndependent: inputs carved from one slab do not share
// state, a full slab falls back to the heap, and a decoded copy shares
// nothing with the slab it came from.
func TestSlabInputsAreIndependent(t *testing.T) {
	sb := Sandbox{Pages: 2}
	slab := NewSlab(sb, 2)
	a, b, c := slab.NewInput(sb), slab.NewInput(sb), slab.NewInput(sb)
	for i, in := range []*Input{a, b, c} {
		in.Mem.SetByte(5, byte(i+1))
		in.Mem.SetByte(PageSize+5, byte(i+11))
	}
	enc, _ := a.AppendBinary(nil)
	clone := &Input{}
	if err := clone.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	a.Mem.SetByte(5, 0xff)
	for i, in := range []*Input{clone, b, c} {
		if in.Mem.Byte(5) != byte(i+1) || in.Mem.Byte(PageSize+5) != byte(i+11) || in.Mem.Byte(6) != 0 {
			t.Errorf("input %d shares memory with another", i)
		}
	}
}

// TestSlabResetRecyclesStorage: after Reset a slab hands out zero inputs
// again — registers, page tables and spare lists cleared even though the
// storage, stale bytes included, is the previous program's — carved from
// the same pages as before, pairwise independent, without allocating; and
// it follows a change of sandbox geometry.
func TestSlabResetRecyclesStorage(t *testing.T) {
	sb := Sandbox{Pages: 2}
	slab := NewSlab(sb, 3)
	var ins [3]*Input
	// program carves three inputs and writes them; the later ones also view
	// their predecessor, which leaves one of their pages on the spare list.
	// It returns the pages the inputs own.
	program := func(check bool) map[*Page]bool {
		for i := range ins {
			in := slab.NewInput(sb)
			if check && (in.Regs != ([NumRegs]uint64{}) || in.Mem.Materialized() != 0 || len(in.Mem.spare) != 0 ||
				!bytes.Equal(in.Mem.Dense(), make([]byte, sb.Size()))) {
				t.Fatalf("input %d of a reset slab is not zero", i)
			}
			in.Regs[0] = uint64(i + 1)
			in.Mem.SetByte(PageSize+9, byte(i+1))
			if i > 0 {
				in.Mem.SetByte(3, 0xee)
				in.Mem.ViewOf(&ins[i-1].Mem)
			}
			in.Mem.SetByte(3, byte(i+21))
			ins[i] = in
		}
		var owned map[*Page]bool
		if check {
			owned = map[*Page]bool{}
		}
		for i, in := range ins {
			// Byte PageSize+9 is input 0's write, which the later inputs
			// see through their chain of views.
			if in.Mem.Byte(3) != byte(i+21) || in.Mem.Byte(PageSize+9) != 1 {
				t.Fatalf("input %d shares a page with another", i)
			}
			if check {
				for pi, p := range in.Mem.pages {
					if in.Mem.owned[0]&(1<<pi) != 0 {
						owned[p] = true
					}
				}
			}
		}
		return owned
	}
	program(true)
	slab.Reset(sb, 3)
	first := program(true)
	slab.Reset(sb, 3)
	if again := program(true); len(again) != len(first) {
		t.Errorf("a reset slab carved %d pages, %d the time before", len(again), len(first))
	} else {
		for p := range again {
			if !first[p] {
				t.Errorf("a reset slab carved fresh pages instead of its own")
				break
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { slab.Reset(sb, 3); program(false) }); allocs > 0 {
		t.Errorf("a reset slab allocates %v objects per program, want 0", allocs)
	}
	wide := Sandbox{Pages: 8}
	slab.Reset(wide, 2)
	if in := slab.NewInput(wide); in.Mem.Sandbox() != wide || in.Mem.Materialized() != 0 {
		t.Errorf("slab reset to %d pages carved a %d-page input", wide.Pages, in.Mem.Sandbox().Pages)
	}
}

// heldWords returns how many words page pi of im holds written down.
func heldWords(im *Image, pi int) int {
	n := 0
	if p := im.pages[pi]; p != nil {
		for _, h := range p.have {
			n += bits.OnesCount64(h)
		}
	}
	return n
}

// TestWritesMaterializeWords pins what a write costs: reads write down
// nothing; a write into a background page writes down the one or two words
// it lands in, not the page; a view's first write into a shared page copies
// the words that page holds and no others; and a page recycled from the
// spare list starts out holding nothing, whatever it held before.
func TestWritesMaterializeWords(t *testing.T) {
	sb := Sandbox{Pages: 4}
	im := NewImage(sb)
	im.Reset(StreamFill(0xfeed, 3))
	want := denseFill(sb, true, 0xfeed, 3)
	for off := uint64(0); off < sb.Size(); off += 61 {
		im.Read(DataBase+off, 8)
		im.Byte(off)
	}
	if im.Materialized() != 0 {
		t.Fatalf("reads materialized %d page(s)", im.Materialized())
	}
	for _, c := range []struct {
		off   uint64
		size  uint8
		held  [2]int // words held by pages 0 and 1 after the write
		where string
	}{
		{0x100, 8, [2]int{1, 0}, "an aligned word"},
		{0x203, 2, [2]int{2, 0}, "bytes inside a word"},
		{0x306, 4, [2]int{4, 0}, "two words"},
		{0x104, 4, [2]int{4, 0}, "a word already held"},
		{PageSize - 4, 8, [2]int{5, 1}, "two pages"},
	} {
		v := uint64(0x1122334455667788)
		im.Write(DataBase+c.off, c.size, v)
		for k := uint64(0); k < uint64(c.size); k++ {
			want[c.off+k] = byte(v >> (8 * k))
		}
		if got := [2]int{heldWords(im, 0), heldWords(im, 1)}; got != c.held {
			t.Errorf("a write of %s: pages hold %v words, want %v", c.where, got, c.held)
		}
	}
	if !bytes.Equal(im.Dense(), want) {
		t.Fatalf("image differs from its model after partial-page writes")
	}

	view := NewImage(sb)
	view.ViewOf(im)
	view.SetByte(0x400, 0xaa)
	if got := heldWords(view, 0); got != heldWords(im, 0)+1 {
		t.Errorf("a write through a view holds %d words of the shared page's %d, want one more", got, heldWords(im, 0))
	}
	want[0x400] = 0xaa
	if !bytes.Equal(view.Dense(), want) {
		t.Fatalf("view differs from its model after a write into a shared partial page")
	}

	// im's pages go to its spare list still holding their words; the next
	// write takes one of them back and must not see those words.
	im.Reset(StreamFill(0xbeef, 9))
	im.SetByte(2*PageSize+1, 0x5a)
	if got := heldWords(im, 2); got != 1 {
		t.Errorf("a recycled page holds %d words after one write, want 1", got)
	}
	want = denseFill(sb, true, 0xbeef, 9)
	want[2*PageSize+1] = 0x5a
	if !bytes.Equal(im.Dense(), want) {
		t.Fatalf("a recycled page leaked the words it held before")
	}
}

// BenchmarkImageWrite prices a store's first write into a page of a view,
// the way the leakage model and the simulator meet it once per input: into
// a background page (a base input) and into a shared page that holds a few
// written-down words (a mutant, whose restored bytes live there).
func BenchmarkImageWrite(b *testing.B) {
	sb := Sandbox{Pages: 1}
	src := NewImage(sb)
	src.Reset(StreamFill(0x1234, 5))
	b.Run("background", func(b *testing.B) { benchViewWrite(b, src) })
	mutant := NewImage(sb)
	mutant.Reset(StreamFill(0x5678, 6))
	for _, off := range []uint64{0x10, 0x38, 0x200, 0x7f8} {
		mutant.Write(DataBase+off, 8, off)
	}
	b.Run("shared", func(b *testing.B) { benchViewWrite(b, mutant) })
}

func benchViewWrite(b *testing.B, src *Image) {
	view := NewImage(src.Sandbox())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		view.ViewOf(src)
		view.Write(DataBase+0x104, 4, uint64(i))
	}
}
