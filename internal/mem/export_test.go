package mem

import "sort"

// Test-only helpers: accessors and allocating conveniences no shipped code
// calls.

// SizeBytes returns the cache capacity in bytes.
func (c CacheConfig) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// ProbeVictim returns the address Install(addr) would evict, if any,
// without side effects.
func (c *Cache) ProbeVictim(addr uint64) (victim uint64, wouldEvict bool) {
	if c.Contains(addr) {
		return 0, false
	}
	base := c.setBase(addr)
	set := c.lines[base : base+c.cfg.Ways]
	w := victimWay(set)
	if set[w].valid() {
		return set[w].addr(), true
	}
	return 0, false
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid() {
			n++
		}
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Save captures the full tag state.
func (c *Cache) Save() *CacheState {
	st := &CacheState{}
	c.SaveInto(st)
	return st
}

// Touch looks up page and refreshes LRU on a hit.
func (t *TLB) Touch(page uint64) bool {
	hit, _, _ := t.lookup(page, false)
	return hit
}

// Save captures the TLB state.
func (t *TLB) Save() *TLBState {
	st := &TLBState{}
	t.SaveInto(st)
	return st
}

// Save captures cache and TLB state for later replay.
func (h *Hierarchy) Save() *HierState {
	st := &HierState{}
	h.SaveInto(st)
	return st
}

// Busy returns the line addresses of entries still busy at cycle now,
// sorted.
func (m *MSHRFile) Busy(now uint64) []uint64 {
	var out []uint64
	for _, e := range m.busy {
		if e.busyUntil > now {
			out = append(out, e.addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The three-scan TLB access lookup replaced, kept as its oracle: a lookup
// scan, the same scan again inside Install, then a victim scan.

// refTouch looks up page and refreshes LRU on a hit.
func (t *TLB) refTouch(page uint64) bool {
	key := page + 1
	for i := range t.entries {
		if t.entries[i].key == key {
			t.useTick++
			t.entries[i].lastUse = t.useTick
			return true
		}
	}
	return false
}

// refInstall inserts page, evicting the LRU entry if full.
func (t *TLB) refInstall(page uint64) (victim uint64, evicted bool) {
	if t.refTouch(page) {
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
	return victim, evicted
}

// refTranslate is Hierarchy.TranslateData's D-TLB side: Touch, then Install
// on a miss when install is set.
func (t *TLB) refTranslate(page uint64, install bool) (hit bool) {
	if t.refTouch(page) {
		return true
	}
	if install {
		t.refInstall(page)
	}
	return false
}
