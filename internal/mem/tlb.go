package mem

import "slices"

// TLB is a fully associative data TLB with true-LRU replacement over
// virtual page numbers. Its final state is part of the default
// micro-architectural trace: speculative TLB fills are how AMuLeT flags the
// known STT vulnerability (KV3, tainted stores installing D-TLB entries).
type TLB struct {
	entries []tlbEntry
	useTick uint64

	// touched flags any mutation (install, LRU-updating hit, bulk reset)
	// since the last clearTouched. The incremental prime skips the TLB
	// rebuild entirely when a test case never touched a translation.
	touched bool
}

// tlbEntry packs validity and the page number into one key word (page+1,
// or 0 when invalid), so the fully associative scan is one comparison per
// entry — the cache priming path installs hundreds of translations per
// test case through this scan.
type tlbEntry struct {
	key     uint64 // virtual page number + 1, or 0 when invalid
	lastUse uint64
}

func (e tlbEntry) valid() bool  { return e.key != 0 }
func (e tlbEntry) page() uint64 { return e.key - 1 }

// NewTLB builds a TLB with n entries. It panics if n < 1.
func NewTLB(n int) *TLB {
	if n < 1 {
		panic("mem: TLB size must be at least 1")
	}
	return &TLB{entries: make([]tlbEntry, n), touched: true}
}

// clearTouched resets the mutation flag. Only the prime paths call it,
// right after re-establishing a canonical TLB state.
func (t *TLB) clearTouched() { t.touched = false }

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// Touch looks up page and refreshes LRU on a hit.
func (t *TLB) Touch(page uint64) bool {
	key := page + 1
	for i := range t.entries {
		if t.entries[i].key == key {
			t.useTick++
			t.entries[i].lastUse = t.useTick
			t.touched = true
			return true
		}
	}
	return false
}

// Contains reports presence without updating LRU.
func (t *TLB) Contains(page uint64) bool {
	key := page + 1
	for i := range t.entries {
		if t.entries[i].key == key {
			return true
		}
	}
	return false
}

// Install inserts page, evicting the LRU entry if full. It returns the
// evicted page, if any.
func (t *TLB) Install(page uint64) (victim uint64, evicted bool) {
	if t.Touch(page) {
		return 0, false
	}
	lru, lruIdx := ^uint64(0), 0
	for i := range t.entries {
		if !t.entries[i].valid() {
			lruIdx = i
			lru = 0
			break
		}
		if t.entries[i].lastUse < lru {
			lru = t.entries[i].lastUse
			lruIdx = i
		}
	}
	if t.entries[lruIdx].valid() {
		victim, evicted = t.entries[lruIdx].page(), true
	}
	t.useTick++
	t.entries[lruIdx] = tlbEntry{key: page + 1, lastUse: t.useTick}
	t.touched = true
	return victim, evicted
}

// InvalidateAll clears the TLB.
func (t *TLB) InvalidateAll() {
	clear(t.entries)
	t.useTick = 0
	t.touched = true
}

// TLBState is an opaque copy of the TLB content (violation validation).
type TLBState struct {
	entries []tlbEntry
	useTick uint64
}

// SaveInto captures the TLB state into st, reusing st's buffer.
func (t *TLB) SaveInto(st *TLBState) {
	st.entries = append(st.entries[:0], t.entries...)
	st.useTick = t.useTick
}

// Restore rewinds the TLB to a saved state. It panics on size mismatch.
func (t *TLB) Restore(st *TLBState) {
	if len(st.entries) != len(t.entries) {
		panic("mem: TLBState size mismatch")
	}
	copy(t.entries, st.entries)
	t.useTick = st.useTick
	t.touched = true
}

// Snapshot returns the sorted virtual page numbers currently cached: the
// TLB part of a micro-architectural trace.
func (t *TLB) Snapshot() []uint64 {
	return t.SnapshotInto(nil)
}

// SnapshotInto appends the sorted cached page numbers to buf and returns
// the extended slice (allocation-free trace extraction).
func (t *TLB) SnapshotInto(buf []uint64) []uint64 {
	start := len(buf)
	for _, e := range t.entries {
		if e.valid() {
			buf = append(buf, e.page())
		}
	}
	slices.Sort(buf[start:])
	return buf
}
