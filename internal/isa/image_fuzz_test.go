package isa

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// denseFill writes fill f out the slow, obvious way: word by word over the
// whole sandbox. It is the model Image's addressed reads are checked against.
func denseFill(sb Sandbox, stream bool, base, n0 uint64) []byte {
	m := make([]byte, sb.Size())
	if stream {
		for i := uint64(0); i < sb.Size()/8; i++ {
			binary.LittleEndian.PutUint64(m[8*i:], StreamWord(base, n0+1+i))
		}
	}
	return m
}

// FuzzImage drives an image, and a copy-on-write view of it, with an
// op sequence decoded from the fuzz input, next to dense []byte models.
// Every read must agree with the model, the viewed image must never change
// under writes through the view, and writing either image out (Dense) must
// equal its model. Neither image may hold a word written down that no write
// since its last reset touched: reads, views and copies write nothing down.
// Accesses are steered onto page boundaries and the sandbox end, where they
// straddle and wrap. The first byte also picks the images' storage: both
// images carved from one slab, which a reset of the image (with no view
// open) rewinds and carves both from again — the slab hands out pages and
// blocks other pages held before — and whether the image starts from
// FillFrom, every word written down in full blocks.
func FuzzImage(f *testing.F) {
	// pages selector (data[0]%3; data[0]/3: bit 0 slab, bit 1 FillFrom),
	// fill selector, then ops of 5 bytes: op, where, lo, hi, val.
	f.Add([]byte{1, 1, 0, 2, 0xff, 0x0f, 8, 1, 2, 0xfe, 0x0f, 0xaa, 0, 2, 0xfd, 0x0f, 8})          // straddling read, write, read back
	f.Add([]byte{0, 1, 1, 3, 0xfc, 0xff, 0x5a, 0, 3, 0xfb, 0xff, 8, 2, 0, 0, 0, 1})                // wrap at the sandbox end
	f.Add([]byte{1, 1, 3, 0, 0, 0, 0, 1, 0, 0x10, 0x00, 0x77, 0, 0, 0x10, 0x00, 8, 3, 0, 0, 0, 0}) // view, write through it, re-view
	f.Add([]byte{2, 0, 1, 1, 0x01, 0x20, 0x11, 3, 0, 0, 0, 0, 2, 1, 0x01, 0x20, 0x22, 4, 0, 9, 9, 0, 6, 0, 0, 0, 0, 1, 0, 5, 0, 0x33})
	f.Add([]byte{0, 1, 1, 0, 0x13, 0x00, 0x02, 3, 0, 0, 0, 0, 1, 0, 0x16, 0x00, 0x03, 0, 0, 0x10, 0x00, 8, 6, 0, 0, 0, 0, 0, 0, 0x16, 0x00, 3}) // write a partial page, view it, write beside the word
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sb := Sandbox{Pages: 1 << (data[0] % 3)}
		mode := data[0] / 3
		var slab *Slab // nil: both images are the heap's
		if mode&1 != 0 {
			slab = NewSlab(sb, 2)
		}
		carve := func() *Image {
			if slab == nil {
				return NewImage(sb)
			}
			return &slab.NewInput(sb).Mem
		}
		stream := data[1]&1 == 1
		fbase, fn0 := uint64(data[1])*0x9E3779B97F4A7C15, uint64(data[1]>>1)
		img := carve()
		model := denseFill(sb, false, 0, 0)
		if stream {
			img.Reset(StreamFill(fbase, fn0))
			model = denseFill(sb, true, fbase, fn0)
		}
		var view *Image   // when non-nil, ops go through it and img is frozen
		var frozen []byte // model of img while viewed
		spare := carve()  // the one view object, re-aimed by every view op
		mask := sb.Mask()
		// wrote marks the words writes touched since the image's last reset;
		// a view starts from the words of the image it views.
		wrote, viewWrote := make([]bool, sb.Size()/8), []bool(nil)
		if mode&2 != 0 {
			for i := range model {
				model[i] = byte(i>>3) ^ byte(i)*data[1]
			}
			if err := img.FillFrom(bytes.NewReader(model)); err != nil {
				t.Fatal(err)
			}
			for i := range wrote {
				wrote[i] = true
			}
		}

		onlyWritten := func(im *Image, wrote []bool) {
			t.Helper()
			for pi, p := range im.pages {
				for i := uint64(0); p != nil && i < wordsPerPage; i++ {
					if n := uint64(pi)*wordsPerPage + i; p.holds(i) && !wrote[n] {
						t.Fatalf("word %#x is written down, but no write touched it", n)
					}
				}
			}
		}
		check := func() {
			t.Helper()
			want := model
			if view != nil {
				want = frozen
				if got := view.Dense(); !bytes.Equal(got, model) {
					t.Fatalf("view written out differs from its model")
				}
				onlyWritten(view, viewWrote)
			}
			if got := img.Dense(); !bytes.Equal(got, want) {
				t.Fatalf("image written out differs from its model (viewed: %v)", view != nil)
			}
			onlyWritten(img, wrote)
		}

		for ops := data[2:]; len(ops) >= 5; ops = ops[5:] {
			op, where, val := ops[0]%7, ops[1]%4, ops[4]
			off := uint64(binary.LittleEndian.Uint16(ops[2:4]))
			switch where {
			case 1: // just below a page boundary
				off = (off&^(PageSize-1) | (PageSize - 1 - off%8))
			case 2: // just below the sandbox end
				off = sb.Size() - 1 - off%8
			}
			off &= mask
			size := uint8(1) << (val % 4)
			cur, curWrote := img, wrote
			if view != nil {
				cur, curWrote = view, viewWrote
			}
			touch := func(n uint8) {
				for k := uint64(0); k < uint64(n); k++ {
					curWrote[(off+k)&mask/8] = true
				}
			}
			switch op {
			case 0: // Read
				var want uint64
				for k := uint64(0); k < uint64(size); k++ {
					want |= uint64(model[(off+k)&mask]) << (8 * k)
				}
				if got := cur.Read(DataBase+off, size); got != want {
					t.Fatalf("Read(%#x, %d) = %#x, model %#x", off, size, got, want)
				}
			case 1: // Write
				v := uint64(val)*0x0101010101010101 ^ off
				cur.Write(DataBase+off, size, v)
				touch(size)
				for k := uint64(0); k < uint64(size); k++ {
					model[(off+k)&mask] = byte(v >> (8 * k))
				}
			case 2: // SetByte, Byte
				cur.SetByte(off, val)
				touch(1)
				model[off] = val
				if got := cur.Byte(off); got != val {
					t.Fatalf("Byte(%#x) = %#x after SetByte %#x", off, got, val)
				}
			case 3: // (re-)aim the view at the image
				check()
				if view == nil {
					frozen = model
				}
				model = append([]byte(nil), frozen...)
				view = spare
				view.ViewOf(img)
				viewWrote = append(viewWrote[:0], wrote...)
			case 4: // reset the current image to a new background
				s, b, n := val&1 == 1, uint64(ops[2])<<32|uint64(val), uint64(ops[3])
				model = denseFill(sb, s, b, n)
				clear(curWrote)
				if slab != nil && view == nil {
					slab.Reset(sb, 2)
					img, spare = carve(), carve()
					cur = img
				}
				if s {
					cur.Reset(StreamFill(b, n))
				} else {
					cur.Reset(Fill{})
				}
			case 5: // Byte on untouched ground
				if got := cur.Byte(off); got != model[off] {
					t.Fatalf("Byte(%#x) = %#x, model %#x", off, got, model[off])
				}
			case 6: // drop the view; the image is writable again
				check()
				if view != nil {
					view, model, frozen = nil, frozen, nil
				}
			}
		}
		check()
	})
}
