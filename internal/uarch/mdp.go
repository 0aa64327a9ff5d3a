package uarch

import "github.com/sith-lab/amulet-go/internal/isa"

// MDP is the memory-dependence predictor. It starts optimistic — loads may
// bypass older stores whose addresses are still unknown — which is exactly
// the behaviour Spectre-v4 (speculative store bypass) exploits. A memory
// order violation trains the predictor to make the offending load wait.
//
// Counters are kept in a dense slice indexed by instruction slot
// ((PC - CodeBase) / InstBytes) instead of a PC-keyed map: Bypass sits on
// the store-queue search path, which probes it for every load issue attempt
// that meets an unresolved store address, so the lookup must be a bounds
// check and a byte load. The trained list keeps Reset/SaveInto O(trained)
// rather than O(program) — the predictor is almost always empty.
type MDP struct {
	wait    []uint8 // instruction slot -> saturating "must wait" counter
	trained []int32 // slots whose counter may be nonzero
}

// mdpSlot maps a PC to its counter index.
func mdpSlot(pc uint64) int { return int((pc - isa.CodeBase) / isa.InstBytes) }

// NewMDP builds an empty predictor (all loads bypass).
func NewMDP() *MDP { return &MDP{} }

// Reset clears the predictor (fresh micro-architectural context).
func (m *MDP) Reset() {
	for _, s := range m.trained {
		m.wait[s] = 0
	}
	m.trained = m.trained[:0]
}

// Bypass reports whether the load at pc may bypass older unresolved stores.
func (m *MDP) Bypass(pc uint64) bool {
	s := mdpSlot(pc)
	return s >= len(m.wait) || m.wait[s] == 0
}

// TrainViolation records a memory-order violation by the load at pc.
func (m *MDP) TrainViolation(pc uint64) {
	s := mdpSlot(pc)
	if s >= len(m.wait) {
		grown := make([]uint8, s+64)
		copy(grown, m.wait)
		m.wait = grown
	}
	if m.wait[s] == 0 && !m.listed(int32(s)) {
		// A decayed slot stays on the trained list until Reset, so a zero
		// counter alone does not mean the slot is unlisted.
		m.trained = append(m.trained, int32(s))
	}
	m.wait[s] = 4
}

// listed reports whether slot s is already on the trained list. Violations
// are rare and the list is short, so a linear scan is fine here.
func (m *MDP) listed(s int32) bool {
	for _, t := range m.trained {
		if t == s {
			return true
		}
	}
	return false
}

// MDPState is an opaque copy of the predictor state.
type MDPState struct {
	slots []int32
	vals  []uint8
}

// SaveInto captures the predictor state into st, reusing st's buffers.
func (m *MDP) SaveInto(st *MDPState) {
	st.slots = st.slots[:0]
	st.vals = st.vals[:0]
	for _, s := range m.trained {
		if v := m.wait[s]; v > 0 {
			st.slots = append(st.slots, s)
			st.vals = append(st.vals, v)
		}
	}
}

// Restore rewinds the predictor to a saved state.
func (m *MDP) Restore(st *MDPState) {
	m.Reset()
	for i, s := range st.slots {
		m.TrainViolation(isa.PCOf(int(s)))
		m.wait[s] = st.vals[i]
	}
}

// TrainCorrect decays the wait counter after the load at pc completed
// without a violation, so stale dependencies eventually clear. Slots that
// decay to zero stay on the trained list until the next Reset; Bypass reads
// the counter, not the list.
func (m *MDP) TrainCorrect(pc uint64) {
	s := mdpSlot(pc)
	if s < len(m.wait) && m.wait[s] > 0 {
		m.wait[s]--
	}
}
