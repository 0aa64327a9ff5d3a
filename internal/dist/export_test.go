package dist

// LeasesHeld returns how many leases each worker holds, by worker ID — the
// lease table as the protocol tests sample it.
func (co *Coordinator) LeasesHeld() map[int64]int {
	co.mu.Lock()
	defer co.mu.Unlock()
	held := map[int64]int{}
	for _, l := range co.leases {
		held[l.worker]++
	}
	return held
}
