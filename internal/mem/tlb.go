package mem

import "slices"

// TLB is a fully associative data TLB with true-LRU replacement over
// virtual page numbers. Its final state is part of the default
// micro-architectural trace: speculative TLB fills are how AMuLeT flags the
// known STT vulnerability (KV3, tainted stores installing D-TLB entries).
// Every access (Install, Hierarchy.TranslateData) is one scan of the
// entries that finds a hit, the first free entry and the LRU victim
// together (lookup). It keeps no dirty tracking: every prime rewrites all
// of its entries (64 by default, one 1 KiB copy or clear).
type TLB struct {
	entries []tlbEntry
	useTick uint64
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
	return &TLB{entries: make([]tlbEntry, n)}
}

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

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
// evicted page, if any. Installing a present page only refreshes its LRU.
func (t *TLB) Install(page uint64) (victim uint64, evicted bool) {
	_, victim, evicted = t.lookup(page, true)
	return victim, evicted
}

// lookup is the TLB access in one scan of the entries: on a hit it
// refreshes LRU; on a miss with install it fills the first invalid entry,
// or else evicts the least recently used one (the lowest index among
// equals), and reports the evicted page. The valid entries are always a
// prefix of the array — a miss fills the first invalid entry, and only
// InvalidateAll (or a Restore of such a state) invalidates — so the scan
// stops at the first invalid entry: the page is not further on.
func (t *TLB) lookup(page uint64, install bool) (hit bool, victim uint64, evicted bool) {
	key := page + 1
	lru, lruIdx := ^uint64(0), 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.key == key {
			t.useTick++
			e.lastUse = t.useTick
			return true, 0, false
		}
		if e.key == 0 {
			lruIdx = i
			break
		}
		if e.lastUse < lru {
			lru, lruIdx = e.lastUse, i
		}
	}
	if !install {
		return false, 0, false
	}
	if e := t.entries[lruIdx]; e.valid() {
		victim, evicted = e.page(), true
	}
	t.useTick++
	t.entries[lruIdx] = tlbEntry{key: key, lastUse: t.useTick}
	return false, victim, evicted
}

// InvalidateAll clears the TLB.
func (t *TLB) InvalidateAll() {
	clear(t.entries)
	t.useTick = 0
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
