package isa

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/bits"
	"testing"
)

// TestInputJSONShape pins the serialized form of an input to what it was
// when Mem was a dense []byte — registers plus the base64 of every sandbox
// byte — so checkpoints, bundles and dist envelopes written before and after
// the paged representation are mutually readable.
func TestInputJSONShape(t *testing.T) {
	sb := Sandbox{Pages: 2}
	in := NewInput(sb)
	in.Regs[5] = 0xabc
	in.Mem.Reset(StreamFill(0x1234, 77))
	in.Mem.Write(DataBase+PageSize-3, 8, 0x1122334455667788)

	got, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"Regs":[0,0,0,0,0,2748,0,0,0,0,0,0,0,0,0,0],"Mem":%q}`,
		base64.StdEncoding.EncodeToString(in.Mem.Dense()))
	if string(got) != want {
		t.Fatalf("serialized input changed shape:\ngot  %.120s...\nwant %.120s...", got, want)
	}

	back := &Input{}
	if err := json.Unmarshal(got, back); err != nil {
		t.Fatal(err)
	}
	if back.Regs != in.Regs || back.Mem.Sandbox() != sb || !bytes.Equal(back.Mem.Dense(), in.Mem.Dense()) {
		t.Errorf("input does not survive a JSON round trip")
	}
}

// TestInputUnmarshalRejectsBadSize: memory that is not a whole sandbox must
// fail to decode; before, it decoded and panicked when replayed.
func TestInputUnmarshalRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, 100, PageSize - 1, 3 * PageSize, 1024 * PageSize} {
		doc := fmt.Sprintf(`{"Regs":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"Mem":%q}`,
			base64.StdEncoding.EncodeToString(make([]byte, n)))
		if err := json.Unmarshal([]byte(doc), &Input{}); err == nil {
			t.Errorf("input with %d bytes of memory decoded", n)
		}
	}
	if err := json.Unmarshal([]byte(`{"Regs":[],"Mem":null}`), &Input{}); err == nil {
		t.Errorf("input with null memory decoded")
	}
}

// TestSlabInputsAreIndependent: inputs carved from one slab do not share
// state, a full slab falls back to the heap, and a Clone shares nothing
// with the slab it came from.
func TestSlabInputsAreIndependent(t *testing.T) {
	sb := Sandbox{Pages: 2}
	slab := NewSlab(sb, 2)
	a, b, c := slab.NewInput(sb), slab.NewInput(sb), slab.NewInput(sb)
	for i, in := range []*Input{a, b, c} {
		in.Mem.SetByte(5, byte(i+1))
		in.Mem.SetByte(PageSize+5, byte(i+11))
	}
	clone := a.Clone()
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
