package mem

import (
	"math/bits"
	"slices"
)

// A µarch trace observes a cache's whole content, yet a test case changes
// only the few sets it touched: everything else still holds what the prime
// left there. So the trace keeps a cache as a delta. The base is the
// content the prime establishes, immutable and shared by every trace taken
// after such a prime. The delta is the sets whose content differs from the
// base, with their lines.
//
// Set content is the multiset of valid line addresses, sorted, so LRU
// state is not part of it. A set that was touched but came back to its base
// content does not count as changed. The changed sets are therefore exactly
// the sets that differ from the base, and two caches over one base hold the
// same lines if and only if their deltas are equal.

// CacheBase is the immutable content of a cache after a prime, in canonical
// order (set-major, address-sorted within each set).
type CacheBase struct {
	sets      int
	lineShift uint
	setMask   uint64
	// Set s holds lines[off[s]:off[s+1]]. Both share one buffer; both are
	// nil in an empty base, which therefore costs no allocation.
	lines []uint64
	off   []uint64
}

// set returns the base content of set s.
func (b *CacheBase) set(s int) []uint64 {
	if b.lines == nil {
		return nil
	}
	return b.lines[b.off[s]:b.off[s+1]]
}

// words is the length of a changed-set bitmap over b's sets.
func (b *CacheBase) words() int { return (b.sets + 63) / 64 }

// emptyBase returns the geometry of c with no lines.
func (c *Cache) emptyBase() CacheBase {
	return CacheBase{sets: c.cfg.Sets, lineShift: c.lineShift, setMask: c.setMask}
}

// newBase captures c's current content as a base, its lines and offsets in
// one buffer.
func (c *Cache) newBase() *CacheBase {
	b := c.emptyBase()
	buf := make([]uint64, c.cfg.Sets+1, c.cfg.Sets+1+len(c.lines))
	b.off, b.lines = buf, buf[c.cfg.Sets+1:]
	for s := 0; s < c.cfg.Sets; s++ {
		b.lines = c.appendSet(b.lines, s)
		b.off[s+1] = uint64(len(b.lines))
	}
	return &b
}

// CacheDelta is a cache's content as a difference from its base: a bitmap
// of the sets that differ, then those sets' lines in canonical order, in
// one buffer. A delta with no changed set keeps an empty buffer. The zero
// value is an empty section, as in a trace format that does not observe
// the cache.
type CacheDelta struct {
	base *CacheBase
	buf  []uint64 // changed-set bitmap words, then the changed sets' lines
}

// DeltaInto overwrites d with c's content as a delta from c's base,
// reusing d's buffer. It visits only the dirty sets, since a clean set
// holds its base content; a cache whose sets hold no canonical content
// (base nil) is compared set by set against the empty base.
func (c *Cache) DeltaInto(d *CacheDelta) {
	base, dirty := c.base, c.dirty
	if base == nil {
		base, dirty = &c.empty, nil
	}
	nw := base.words()
	buf := slices.Grow(d.buf[:0], nw+len(c.lines))[:nw]
	clear(buf)
	changed := false
	for wi := 0; wi < nw; wi++ {
		word := ^uint64(0)
		if dirty != nil {
			word = dirty[wi]
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			if s >= c.cfg.Sets {
				break
			}
			runStart := len(buf)
			buf = c.appendSet(buf, s)
			if slices.Equal(buf[runStart:], base.set(s)) {
				buf = buf[:runStart]
				continue
			}
			buf[wi] |= 1 << uint(b)
			changed = true
		}
	}
	if !changed {
		buf = buf[:0]
	}
	d.base, d.buf = base, buf
}

// Equal reports whether two deltas describe the same cache content. Over
// one base that is buffer equality; deltas over different bases (traces of
// different executors or prime modes) are compared by expanding both.
func (d *CacheDelta) Equal(o *CacheDelta) bool {
	if d.base == o.base {
		return slices.Equal(d.buf, o.buf)
	}
	return slices.Equal(d.AppendLines(nil), o.AppendLines(nil))
}

// AppendLines appends the full content the delta describes to buf in
// canonical order: exactly what Cache.SnapshotInto returned for the cache
// the delta was taken from.
func (d *CacheDelta) AppendLines(buf []uint64) []uint64 {
	b := d.base
	if b == nil {
		return buf
	}
	var bitmap, lines []uint64
	if len(d.buf) > 0 {
		bitmap, lines = d.buf[:b.words()], d.buf[b.words():]
	}
	for s := 0; s < b.sets; s++ {
		if bitmap == nil || bitmap[s>>6]&(1<<uint(s&63)) == 0 {
			buf = append(buf, b.set(s)...)
			continue
		}
		n := 0
		for n < len(lines) && int((lines[n]>>b.lineShift)&b.setMask) == s {
			n++
		}
		buf = append(buf, lines[:n]...)
		lines = lines[n:]
	}
	return buf
}

// Clone returns a copy of d with its own buffer, sized to the content; the
// immutable base is shared.
func (d *CacheDelta) Clone() CacheDelta {
	return CacheDelta{base: d.base, buf: slices.Clone(d.buf)}
}

// Reset empties d, keeping its buffer's capacity.
func (d *CacheDelta) Reset() {
	d.base, d.buf = nil, d.buf[:0]
}
