package mem

// UseHeapFills routes every fill of h through the (ready cycle, id)
// min-heap, bypassing the calendar ring — the ring's test oracle. Call it
// before the first fill is scheduled.
func (h *Hierarchy) UseHeapFills() { h.heapOnly = true }
