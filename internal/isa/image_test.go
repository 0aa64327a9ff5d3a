package isa

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
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
