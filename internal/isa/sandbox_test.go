package isa

import (
	"testing"
	"testing/quick"
)

func TestSandboxValidate(t *testing.T) {
	for _, pages := range []int{1, 2, 4, 128, 512} {
		if err := (Sandbox{Pages: pages}).Validate(); err != nil {
			t.Errorf("pages=%d rejected: %v", pages, err)
		}
	}
	for _, pages := range []int{0, 3, 5, 1024, -1} {
		if err := (Sandbox{Pages: pages}).Validate(); err == nil {
			t.Errorf("pages=%d accepted", pages)
		}
	}
}

func TestEffAddrWraps(t *testing.T) {
	sb := Sandbox{Pages: 1}
	if got := sb.EffAddr(0, 0); got != DataBase {
		t.Errorf("EffAddr(0,0) = %#x", got)
	}
	if got := sb.EffAddr(4096, 0); got != DataBase {
		t.Errorf("EffAddr must wrap at sandbox size, got %#x", got)
	}
	if got := sb.EffAddr(0, -1); got != DataBase+4095 {
		t.Errorf("negative displacement should wrap to the top, got %#x", got)
	}
}

// TestEffAddrAlwaysInSandbox is the memory-safety property: no base/imm
// combination escapes the sandbox.
func TestEffAddrAlwaysInSandbox(t *testing.T) {
	sb := Sandbox{Pages: 8}
	prop := func(base uint64, imm int64) bool {
		va := sb.EffAddr(base, imm)
		return va >= DataBase && va < DataBase+sb.Size()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestImageReadWriteRoundTrip(t *testing.T) {
	sb := Sandbox{Pages: 1}
	im := NewImage(sb)
	prop := func(off uint64, val uint64, szSel uint8) bool {
		size := []uint8{1, 2, 4, 8}[szSel%4]
		va := DataBase + (off & sb.Mask())
		im.Write(va, size, val)
		got := im.Read(va, size)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestImageWrapAtEnd(t *testing.T) {
	sb := Sandbox{Pages: 1}
	im := NewImage(sb)
	// Write 8 bytes starting 2 bytes before the end: the tail wraps to the
	// start of the sandbox.
	va := DataBase + sb.Size() - 2
	im.Write(va, 8, 0x0807060504030201)
	if im.Dense()[sb.Size()-2] != 0x01 || im.Dense()[sb.Size()-1] != 0x02 {
		t.Errorf("head bytes wrong")
	}
	if im.Dense()[0] != 0x03 || im.Dense()[5] != 0x08 {
		t.Errorf("wrapped tail wrong: % x", im.Dense()[:6])
	}
	if got := im.Read(va, 8); got != 0x0807060504030201 {
		t.Errorf("read-back = %#x", got)
	}
}

func TestImageViewIsCopyOnWrite(t *testing.T) {
	sb := Sandbox{Pages: 2}
	im := NewImage(sb)
	im.Write(DataBase, 8, 0xdead)
	v := NewImage(sb)
	v.ViewOf(im)
	if v.Read(DataBase, 8) != 0xdead {
		t.Errorf("view does not read the viewed image")
	}
	v.Write(DataBase, 8, 0xbeef)
	v.Write(DataBase+PageSize, 8, 0xf00d)
	if im.Read(DataBase, 8) != 0xdead || im.Materialized() != 1 {
		t.Errorf("writing a view modified the viewed image")
	}
	if v.Read(DataBase, 8) != 0xbeef || v.Read(DataBase+PageSize, 8) != 0xf00d {
		t.Errorf("view lost its own writes")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("ViewOf an image of another geometry must panic")
		}
	}()
	v.ViewOf(NewImage(Sandbox{Pages: 1}))
}

func TestByteAddrWraps(t *testing.T) {
	sb := Sandbox{Pages: 1}
	va := DataBase + sb.Size() - 1
	if got := sb.ByteAddr(va, 1); got != DataBase {
		t.Errorf("ByteAddr wrap = %#x, want %#x", got, DataBase)
	}
}
