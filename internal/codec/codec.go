// Package codec holds the primitives of AMuLeT-Go's binary record encoding —
// the one encoding of a unit result, shared by the checkpoint log and the
// distributed wire: varints, fixed 64-bit words, length-prefixed byte
// strings, and a Reader that checks every length against the bytes that
// remain before it slices or allocates anything.
//
// Every value has exactly one encoding. A Reader accepts only that one:
// varints must be minimal and booleans 0 or 1, so bytes that decode
// re-encode to themselves.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendUvarint appends x as a minimal unsigned varint.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendVarint appends x as a minimal zig-zag varint: small magnitudes of
// either sign take one byte.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendInt appends x as AppendVarint does.
func AppendInt(b []byte, x int) []byte { return binary.AppendVarint(b, int64(x)) }

// AppendBool appends x as one byte, 0 or 1.
func AppendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint64 appends x as 8 little-endian bytes — for words whose bits are
// random, which a varint would only lengthen.
func AppendUint64(b []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(b, x) }

// AppendBytes appends p behind its length.
func AppendBytes(b, p []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(p))), p...) }

// AppendString appends s behind its length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// BeginSized starts a length-prefixed nested encoding: append the nested
// value behind the returned buffer, then close it with EndSized(b, start).
// One byte is reserved for the length; EndSized widens it when the nested
// value turns out longer than 127 bytes.
func BeginSized(b []byte) ([]byte, int) { return append(b, 0), len(b) }

// EndSized writes the length of everything appended since BeginSized
// returned start.
func EndSized(b []byte, start int) []byte {
	n := uint64(len(b) - start - 1)
	if n < 0x80 {
		b[start] = byte(n)
		return b
	}
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], n)
	b = append(b, tmp[1:k]...) // room for the wider length
	copy(b[start+k:], b[start+1:start+1+int(n)])
	copy(b[start:], tmp[:k])
	return b
}

// errTruncated reports bytes that end inside a value.
var errTruncated = errors.New("codec: truncated")

// Reader decodes values from a byte slice in order. The first malformed or
// missing value sets Err and empties the reader, so every later read returns
// a zero value: a decoder reads a whole record, then checks Done once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader of b. Slices it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records the reader's first error and stops it.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
	r.b = nil
}

func (r *Reader) truncated() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.b = nil
}

// Err returns the first error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes remain.
func (r *Reader) Len() int { return len(r.b) }

// Done returns the first error, or an error when bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.truncated()
		return 0
	case n < 0 || n > 1 && r.b[n-1] == 0:
		r.Fail("malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Varint reads a minimal zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a value AppendInt wrote.
func (r *Reader) Int() int { return int(r.Varint()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.truncated()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0, 1:
		return c == 1
	default:
		r.Fail("boolean byte %#x", c)
		return false
	}
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.truncated()
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// Next returns the next n bytes, aliasing the reader's slice.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.truncated()
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Bytes reads a length-prefixed byte string, aliasing the reader's slice.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.truncated()
		return nil
	}
	return r.Next(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads an element count of a list whose elements each take at least
// minBytes bytes, and refuses a count the remaining bytes cannot hold — so
// a caller may size an allocation from it.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail("count %d exceeds the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}
