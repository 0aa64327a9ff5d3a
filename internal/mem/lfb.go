package mem

import "sort"

// LFB models a line-fill buffer: a small fully associative staging area for
// lines fetched from the memory system before they are installed into the
// L1. SpecLFB parks speculative misses here and only releases them into the
// cache once the load turns safe; squashed entries are dropped without ever
// becoming visible.
type LFB struct {
	entries []lfbEntry
}

type lfbEntry struct {
	valid bool
	addr  uint64 // line address
	owner uint64 // sequence number of the owning load (0 = none)
}

// NewLFB builds a buffer with n entries. It panics if n < 1.
func NewLFB(n int) *LFB {
	if n < 1 {
		panic("mem: LFB size must be at least 1")
	}
	return &LFB{entries: make([]lfbEntry, n)}
}

// Size returns the entry count.
func (l *LFB) Size() int { return len(l.entries) }

// FreeCount returns the number of free entries.
func (l *LFB) FreeCount() int {
	n := 0
	for _, e := range l.entries {
		if !e.valid {
			n++
		}
	}
	return n
}

// Alloc reserves an entry for lineAddr owned by load sequence owner. It
// returns false when the buffer is full (the caller must stall the miss).
func (l *LFB) Alloc(lineAddr, owner uint64) bool {
	for i := range l.entries {
		if l.entries[i].valid && l.entries[i].addr == lineAddr {
			return true // already staged; coalesce
		}
	}
	for i := range l.entries {
		if !l.entries[i].valid {
			l.entries[i] = lfbEntry{valid: true, addr: lineAddr, owner: owner}
			return true
		}
	}
	return false
}

// Contains reports whether lineAddr is staged.
func (l *LFB) Contains(lineAddr uint64) bool {
	for _, e := range l.entries {
		if e.valid && e.addr == lineAddr {
			return true
		}
	}
	return false
}

// Release removes lineAddr from the buffer and reports whether it was
// staged; the caller installs it into the cache (load turned safe).
func (l *LFB) Release(lineAddr uint64) bool {
	for i := range l.entries {
		if l.entries[i].valid && l.entries[i].addr == lineAddr {
			l.entries[i] = lfbEntry{}
			return true
		}
	}
	return false
}

// DropOwner discards all entries owned by load sequence owner (squash path).
func (l *LFB) DropOwner(owner uint64) {
	for i := range l.entries {
		if l.entries[i].valid && l.entries[i].owner == owner {
			l.entries[i] = lfbEntry{}
		}
	}
}

// Reset clears the buffer.
func (l *LFB) Reset() { clear(l.entries) }

// Snapshot returns the sorted staged line addresses (debugging aid).
func (l *LFB) Snapshot() []uint64 {
	var out []uint64
	for _, e := range l.entries {
		if e.valid {
			out = append(out, e.addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
