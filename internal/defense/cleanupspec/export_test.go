package cleanupspec

// Test-only accessors no shipped code calls.

// PendingMeta returns how many speculative accesses currently hold undo
// metadata (tests).
func (cs *CleanupSpec) PendingMeta() int { return len(cs.meta) }
