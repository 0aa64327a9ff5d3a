// Package uarch implements the cycle-driven out-of-order core of AMuLeT-Go:
// the stand-in for gem5's O3CPU. It models the mechanisms that the paper's
// leaks live on — speculative fetch along predicted paths, out-of-order
// issue, a load/store queue with store-to-load forwarding and memory
// dependence prediction, squash/recovery, and a memory hierarchy with
// caches, MSHRs and a TLB — and exposes a Defense interface through which
// secure-speculation countermeasures intercept the pipeline.
package uarch

import "hash/fnv"

// BPredConfig configures the branch predictor.
type BPredConfig struct {
	GshareBits  int // log2 of the pattern-history table size
	HistoryBits int // global-history length
	BTBEntries  int // direct-mapped branch target buffer size
}

// DefaultBPredConfig returns a gem5-like predictor configuration.
func DefaultBPredConfig() BPredConfig {
	return BPredConfig{GshareBits: 12, HistoryBits: 12, BTBEntries: 512}
}

// BPred is a gshare branch predictor with a direct-mapped BTB. Its state is
// carried across inputs by the Opt executor (widening prediction variety)
// and is exposed as a snapshot for the BP-state micro-architectural trace
// format evaluated in the paper's Table 5.
type BPred struct {
	cfg     BPredConfig
	pht     []uint8 // 2-bit saturating counters
	history uint64
	btb     []btbEntry
}

type btbEntry struct {
	valid  bool
	pc     uint64
	target uint64
}

// NewBPred builds a predictor. It panics on nonsensical configuration.
func NewBPred(cfg BPredConfig) *BPred {
	if cfg.GshareBits < 1 || cfg.GshareBits > 24 || cfg.HistoryBits < 1 || cfg.HistoryBits > 63 || cfg.BTBEntries < 1 {
		panic("uarch: invalid branch predictor configuration")
	}
	return &BPred{
		cfg: cfg,
		pht: make([]uint8, 1<<cfg.GshareBits),
		btb: make([]btbEntry, cfg.BTBEntries),
	}
}

// Reset clears all predictor state (fresh micro-architectural context).
func (b *BPred) Reset() {
	for i := range b.pht {
		b.pht[i] = 0
	}
	for i := range b.btb {
		b.btb[i] = btbEntry{}
	}
	b.history = 0
}

func (b *BPred) index(pc uint64) int {
	mask := uint64(len(b.pht) - 1)
	return int(((pc >> 2) ^ b.history) & mask)
}

// Predict returns the predicted direction for the conditional branch at pc
// and the history snapshot to restore on a misprediction squash.
func (b *BPred) Predict(pc uint64) (taken bool, histSnapshot uint64) {
	snapshot := b.history
	taken = b.pht[b.index(pc)] >= 2
	// Speculative history update; repaired on squash via the snapshot.
	b.pushHistory(taken)
	return taken, snapshot
}

// Update trains the predictor with the resolved outcome of the branch at
// pc, using the history the branch was predicted under.
func (b *BPred) Update(pc uint64, histAtPred uint64, taken bool, target uint64) {
	saved := b.history
	b.history = histAtPred
	idx := b.index(pc)
	b.history = saved
	if taken {
		if b.pht[idx] < 3 {
			b.pht[idx]++
		}
		e := &b.btb[int((pc>>2)&uint64(len(b.btb)-1))]
		*e = btbEntry{valid: true, pc: pc, target: target}
	} else if b.pht[idx] > 0 {
		b.pht[idx]--
	}
}

// Repair restores the global history after a misprediction, appending the
// corrected outcome.
func (b *BPred) Repair(histAtPred uint64, actualTaken bool) {
	b.history = histAtPred
	b.pushHistory(actualTaken)
}

func (b *BPred) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	b.history = ((b.history << 1) | bit) & ((1 << b.cfg.HistoryBits) - 1)
}

// BPredState is an opaque copy of the predictor state (violation
// validation replays).
type BPredState struct {
	pht     []uint8
	history uint64
	btb     []btbEntry
}

// SaveInto captures the predictor state into st, reusing st's buffers.
func (b *BPred) SaveInto(st *BPredState) {
	st.pht = append(st.pht[:0], b.pht...)
	st.btb = append(st.btb[:0], b.btb...)
	st.history = b.history
}

// Restore rewinds the predictor to a saved state. It panics on geometry
// mismatch.
func (b *BPred) Restore(st *BPredState) {
	if len(st.pht) != len(b.pht) || len(st.btb) != len(b.btb) {
		panic("uarch: BPredState geometry mismatch")
	}
	copy(b.pht, st.pht)
	copy(b.btb, st.btb)
	b.history = st.history
}

// Snapshot digests the full predictor state (PHT, history, BTB) into a
// 64-bit value: the BP-state µarch trace format from Table 5.
func (b *BPred) Snapshot() uint64 {
	h := fnv.New64a()
	h.Write(b.pht)
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(b.history >> (8 * i))
	}
	h.Write(buf[:])
	for _, e := range b.btb {
		if !e.valid {
			h.Write([]byte{0})
			continue
		}
		var eb [17]byte
		eb[0] = 1
		for i := 0; i < 8; i++ {
			eb[1+i] = byte(e.pc >> (8 * i))
			eb[9+i] = byte(e.target >> (8 * i))
		}
		h.Write(eb[:])
	}
	return h.Sum64()
}
