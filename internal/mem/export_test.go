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
