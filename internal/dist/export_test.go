package dist

// LeasesHeld returns how many leases each worker holds, by worker ID — the
// lease table as the protocol tests sample it.
func (co *Coordinator) LeasesHeld() map[int64]int {
	co.mu.Lock()
	defer co.mu.Unlock()
	held := map[int64]int{}
	for _, id := range co.leases {
		held[id]++
	}
	return held
}

// PinGrant fixes the size of every fresh grant at n units in place of the
// one sized in time, for protocol tests that need many small exchanges:
// small grants on a small campaign, whatever its units cost.
func (co *Coordinator) PinGrant(n int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.fixedGrant = n
}

// SetMaxStrikes sets how many integrity failures ban a worker (2
// otherwise).
func (co *Coordinator) SetMaxStrikes(n int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.maxStrikes = n
}

// SetCheckpointEvery sets how many folds pass between checkpoint fsyncs (16
// otherwise).
func (co *Coordinator) SetCheckpointEvery(n int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.checkpointEvery = n
}
