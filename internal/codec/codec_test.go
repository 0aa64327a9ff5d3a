package codec

import (
	"bytes"
	"testing"
)

// TestSizedWidensItsLength: a nested value longer than 127 bytes moves
// behind a two-byte length, and reads back whole.
func TestSizedWidensItsLength(t *testing.T) {
	for _, n := range []int{0, 127, 128, 300, 20000} {
		b, start := BeginSized([]byte{0xaa})
		b = append(b, bytes.Repeat([]byte{7}, n)...)
		b = EndSized(b, start)
		r := NewReader(b)
		if r.Byte() != 0xaa {
			t.Fatalf("%d bytes: the prefix moved", n)
		}
		if got := r.Bytes(); len(got) != n || bytes.Count(got, []byte{7}) != n {
			t.Errorf("%d bytes: read back %d", n, len(got))
		}
		if err := r.Done(); err != nil {
			t.Errorf("%d bytes: %v", n, err)
		}
	}
}

// TestReaderAcceptsOneEncoding: a value has one encoding; a reader refuses
// the others, and lengths and counts the bytes cannot hold.
func TestReaderAcceptsOneEncoding(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"non-minimal varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"boolean 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"length past the end", []byte{5, 1, 2}, func(r *Reader) { r.Bytes() }},
		{"count past the end", []byte{2, 0, 0, 0, 0}, func(r *Reader) { r.Count(4) }},
	} {
		r := NewReader(tc.data)
		tc.read(&r)
		if r.Err() == nil {
			t.Errorf("%s: read without error", tc.name)
		}
	}
	r := NewReader(AppendVarint(AppendUvarint(nil, 1<<40), -3))
	if r.Uvarint() != 1<<40 || r.Varint() != -3 || r.Done() != nil {
		t.Error("minimal varints do not read back")
	}
}
