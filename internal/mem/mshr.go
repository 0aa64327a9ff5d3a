package mem

// MSHRFile models the miss-status handling registers of the L1 data cache.
// Each outstanding line fill occupies one entry from allocation until the
// fill completes. When every entry is busy, new misses must wait — the
// contention channel behind the paper's same-core speculative interference
// attack on InvisiSpec (UV2), amplified by configuring few entries.
//
// Only the live allocations are stored: the paper-sized file has 256
// entries but rarely more than a handful of fills in flight, and Lookup
// sits on the data-access hot path, so scanning a dense busy list (expired
// entries compacted away as they are encountered) beats scanning the full
// register file by orders of magnitude. Occupancy semantics are unchanged:
// an entry is free at cycle now exactly when fewer than Size allocations
// are still busy at now.
type MSHRFile struct {
	size int
	busy []mshrEntry // allocations whose fill may still be in flight
}

type mshrEntry struct {
	addr      uint64 // line address
	busyUntil uint64 // cycle at which the fill completes and the entry frees
}

// NewMSHRFile builds a file with n entries. It panics if n < 1.
func NewMSHRFile(n int) *MSHRFile {
	if n < 1 {
		panic("mem: MSHR count must be at least 1")
	}
	return &MSHRFile{size: n}
}

// Size returns the number of entries.
func (m *MSHRFile) Size() int { return m.size }

// compact drops allocations whose fills completed by cycle now, preserving
// allocation order.
func (m *MSHRFile) compact(now uint64) {
	w := 0
	for i, e := range m.busy {
		if e.busyUntil > now {
			if w != i { // avoid rewrites while nothing has expired
				m.busy[w] = e
			}
			w++
		}
	}
	m.busy = m.busy[:w]
}

// Lookup reports whether a fill for the line holding addr is already in
// flight at cycle now, and when it completes (miss coalescing).
func (m *MSHRFile) Lookup(now, lineAddr uint64) (busyUntil uint64, ok bool) {
	for _, e := range m.busy {
		if e.busyUntil > now && e.addr == lineAddr {
			return e.busyUntil, true
		}
	}
	return 0, false
}

// FreeCount returns the number of entries free at cycle now. Reads never
// compact, so queries about past cycles (debug rendering) stay valid.
func (m *MSHRFile) FreeCount(now uint64) int {
	n := m.size
	for _, e := range m.busy {
		if e.busyUntil > now {
			n--
		}
	}
	return n
}

// EarliestFree returns the earliest cycle (>= now) at which at least one
// entry is free.
func (m *MSHRFile) EarliestFree(now uint64) uint64 {
	live := 0
	best := ^uint64(0)
	for _, e := range m.busy {
		if e.busyUntil > now {
			live++
			if e.busyUntil < best {
				best = e.busyUntil
			}
		}
	}
	if live < m.size {
		return now
	}
	return best
}

// Alloc reserves an entry for a fill of lineAddr starting at cycle start
// and completing at cycle until. The caller must ensure an entry is free at
// start (use EarliestFree); Alloc panics otherwise, because silent
// over-allocation would hide exactly the contention this model exists to
// expose.
func (m *MSHRFile) Alloc(start, until uint64, lineAddr uint64) {
	m.compact(start)
	if len(m.busy) >= m.size {
		panic("mem: MSHR Alloc with no free entry")
	}
	m.busy = append(m.busy, mshrEntry{addr: lineAddr, busyUntil: until})
}

// Reset frees all entries.
func (m *MSHRFile) Reset() {
	m.busy = m.busy[:0]
}
