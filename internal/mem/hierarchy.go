package mem

import (
	"fmt"
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// HierConfig configures the memory hierarchy. The defaults mirror the
// paper's gem5 setup (32 KiB 8-way L1D, 256 MSHRs); testing campaigns
// shrink individual structures to amplify contention (§3.4).
type HierConfig struct {
	L1D, L1I, L2 CacheConfig
	MSHRs        int
	TLBEntries   int
	LFBEntries   int

	LatL1      int // L1 hit latency (cycles)
	LatL2      int // additional latency for an L2 hit
	LatMem     int // additional latency for main memory
	LatTLBWalk int // page-walk latency on a D-TLB miss
}

// DefaultHierConfig returns the default (paper-like) hierarchy.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1D:        CacheConfig{Sets: 64, Ways: 8, LineSize: isa.LineSize},  // 32 KiB
		L1I:        CacheConfig{Sets: 64, Ways: 8, LineSize: isa.LineSize},  // 32 KiB
		L2:         CacheConfig{Sets: 512, Ways: 8, LineSize: isa.LineSize}, // 256 KiB
		MSHRs:      256,
		TLBEntries: 64,
		LFBEntries: 16,
		LatL1:      2,
		LatL2:      12,
		LatMem:     60,
		LatTLBWalk: 30,
	}
}

// Validate reports configuration problems.
func (c HierConfig) Validate() error {
	for _, cc := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1D", c.L1D}, {"L1I", c.L1I}, {"L2", c.L2}} {
		if err := cc.cfg.Validate(); err != nil {
			return fmt.Errorf("%s: %w", cc.name, err)
		}
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("mem: MSHRs must be >= 1, got %d", c.MSHRs)
	}
	if c.TLBEntries < 1 {
		return fmt.Errorf("mem: TLB entries must be >= 1, got %d", c.TLBEntries)
	}
	if c.LFBEntries < 1 {
		return fmt.Errorf("mem: LFB entries must be >= 1, got %d", c.LFBEntries)
	}
	if c.LatL1 < 1 || c.LatL2 < 1 || c.LatMem < 1 || c.LatTLBWalk < 1 {
		return fmt.Errorf("mem: latencies must be >= 1")
	}
	return nil
}

// FillSink says where a completed line fill is placed.
type FillSink uint8

// Fill sinks.
const (
	SinkNone  FillSink = iota // data returned to the core only; no state change
	SinkCache                 // install into L1D (and L2)
	SinkLFB                   // stage in the line-fill buffer (SpecLFB)
)

// fillRingSlots is the calendar ring's horizon in cycles (a power of two,
// for mask indexing). It comfortably covers the deepest single-access
// completion the default latencies can produce (port wait excluded):
// TLB walk + L1 + L2 + memory is well under 128 cycles. Anything later —
// MSHR serialization, CleanupSpec port blocks — overflows to the heap,
// which is correct for any horizon.
const fillRingSlots = 128

type pendingFill struct {
	id        uint64
	at        uint64
	lineAddr  uint64
	sink      FillSink
	owner     uint64
	cancelled bool
}

// CompletedFill describes one fill applied by Tick.
type CompletedFill struct {
	ID       uint64
	LineAddr uint64
	Sink     FillSink
	Owner    uint64
	Victim   uint64
	Evicted  bool
}

// DataAccessOpts controls how a data-side access interacts with the
// hierarchy; defenses express their install policies through it.
type DataAccessOpts struct {
	UpdateLRU          bool     // refresh replacement state on hits (L1 and L2)
	Sink               FillSink // where the fill goes on a miss
	NoMSHR             bool     // bypass MSHR accounting (priming only)
	EvictOnMissFullSet bool     // InvisiSpec UV1 bug: replace on spec miss
	Owner              uint64   // sequence number of the owning instruction
}

// DataAccessResult reports what a data access did and cost.
type DataAccessResult struct {
	L1Hit, L2Hit bool
	Latency      int    // total cycles from issue to data, incl. MSHR wait
	MSHRWait     int    // cycles spent waiting for a free MSHR
	Coalesced    bool   // merged into an in-flight fill of the same line
	FillID       uint64 // nonzero when a fill was scheduled
	FillAt       uint64 // completion cycle of the scheduled/joined fill
	Victim       uint64 // line evicted synchronously (UV1 forced eviction)
	Evicted      bool
}

// Hierarchy owns the cache/TLB/MSHR/LFB state and the pending-fill queue.
// All timing is expressed in the caller's cycle domain: the core calls Tick
// once per cycle and passes the current cycle to every access.
type Hierarchy struct {
	Cfg   HierConfig
	L1D   *Cache
	L1I   *Cache
	L2    *Cache
	MSHR  *MSHRFile
	DTLB  *TLB
	LFBuf *LFB

	// pending is a binary min-heap ordered by (at, id): the root is always
	// the next fill to complete, so a quiescent Tick is a single compare
	// instead of the former O(pending) re-filter every cycle. due and done
	// are scratch buffers reused across Ticks, keeping the per-cycle path
	// allocation-free in steady state.
	pending    []pendingFill
	due        []pendingFill
	done       []CompletedFill
	nextFillID uint64

	// Calendar ring: fills completing within the next fillRingSlots cycles
	// — which, with the bounded latencies of HierConfig, is nearly all of
	// them — get O(1) schedule and pop here; fills beyond that horizon
	// (MSHR waits, port blocks) take the pending heap. Slot
	// at&(fillRingSlots-1) holds the fills completing at cycle at. ringNow
	// is the cycle the ring was last drained to, so the live window is
	// (ringNow, ringNow+fillRingSlots): distinct completion cycles inside
	// it map to distinct slots, and same-cycle fills share a slot in
	// schedule (id) order. ringOcc is the occupancy bitmap (one bit per
	// slot) that Tick, NextReady and the quiescent-span proof scan instead
	// of walking 128 slot headers; ringCount counts ring-resident fills.
	// Every clock rewind in the system is preceded by DropPendingFills,
	// which empties the ring and rewinds ringNow with it.
	ring      [fillRingSlots][]pendingFill
	ringOcc   [fillRingSlots / 64]uint64
	ringCount int
	ringNow   uint64

	// heapOnly routes every fill through the pending heap, the ring's test
	// oracle: the two apply identical fill batches in identical order
	// (TestRingVsHeapPopOrder, TestCalendarFillBitIdentity). Only
	// export_test.go sets it.
	heapOnly bool

	// portBusyUntil blocks the data port: accesses issued before this
	// cycle wait for it. CleanupSpec's rollback raises it, putting cleanup
	// work on the critical path of execution (the unXpec timing channel).
	portBusyUntil uint64

	// lastPrime records which canonical state the structures' dirty
	// tracking is relative to. The incremental prime paths only engage when
	// the previous prime was of the same kind; any other transition (a
	// Reset, a checkpoint Restore, a mode switch) falls back to the full
	// prime, which is always correct.
	lastPrime primeKind

	// Prime template: the canonical post-fill-prime L1D and D-TLB state,
	// captured once from a real full prime (the state is independent of
	// what preceded the prime, so one capture serves every later prime).
	tplValid   bool
	tplL1D     []cacheLine
	tplL1DTick uint64
	tplTLB     []tlbEntry
	tplTLBTick uint64

	// tplL1DDig/tplTLBDig are the content digests of the template state
	// (per L1D set, and the whole TLB), captured alongside it so the
	// incremental prime's raw template copies re-seed the digest tracking
	// exactly instead of staling it for a later re-walk.
	tplL1DDig []uint64
	tplTLBDig uint64

	// conflictScan caches every conflict line address in the full prime's
	// (way, set) scan order, so the incremental prime's per-case L2 pass
	// walks a flat array instead of recomputing 512 conflict addresses.
	conflictScan []uint64

	// conflictBySet/conflictSetOff regroup conflictScan by L2 set (CSR
	// layout: set s's lines are conflictBySet[off[s]:off[s+1]], preserving
	// scan order within the set). The incremental prime walks the L2 dirty
	// bitmap and looks up each dirty set's lines directly, instead of
	// testing all sets × ways conflict lines against the bitmap per case.
	conflictBySet  []uint64
	conflictSetOff []int32

	// primeReplay is the reused scratch list of conflict lines whose L2
	// sets were dirtied and therefore need the install+invalidate replay.
	primeReplay []uint64
}

// primeKind distinguishes the canonical states a prime establishes.
type primeKind uint8

const (
	primeKindNone       primeKind = iota // no prime since the last bulk state change
	primeKindFill                        // PrimeL1D: primed L1D + primed D-TLB
	primeKindInvalidate                  // PrimeInvalidate: empty L1D/L1I/D-TLB
)

// NewHierarchy builds the hierarchy. It panics on invalid configuration.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		Cfg:   cfg,
		L1D:   NewCache(cfg.L1D),
		L1I:   NewCache(cfg.L1I),
		L2:    NewCache(cfg.L2),
		MSHR:  NewMSHRFile(cfg.MSHRs),
		DTLB:  NewTLB(cfg.TLBEntries),
		LFBuf: NewLFB(cfg.LFBEntries),
	}
	// Seed every calendar slot with a little capacity out of one backing
	// array, so the first fill landing in a cold slot doesn't allocate
	// (slots grow past this only when >4 fills complete on one cycle).
	backing := make([]pendingFill, fillRingSlots*4)
	for i := range h.ring {
		h.ring[i] = backing[i*4 : i*4 : (i+1)*4]
	}
	return h
}

// Reset restores the post-construction state (empty caches, free MSHRs).
func (h *Hierarchy) Reset() {
	h.L1D.InvalidateAll()
	h.L1I.InvalidateAll()
	h.L2.InvalidateAll()
	h.MSHR.Reset()
	h.DTLB.InvalidateAll()
	h.LFBuf.Reset()
	h.DropPendingFills()
	h.nextFillID = 0
	h.portBusyUntil = 0
	h.lastPrime = primeKindNone
}

// Tick applies every pending fill due at or before cycle now and returns
// what was installed, in schedule order. Cancelled fills are dropped. The
// returned slice is a buffer owned by the hierarchy, valid until the next
// Tick; no caller retains it past the cycle.
func (h *Hierarchy) Tick(now uint64) []CompletedFill {
	ringDue := h.ringCount > 0 && h.ringHasDue(now)
	if !ringDue && (len(h.pending) == 0 || h.pending[0].at > now) {
		// Quiescent tick: advance the ring's window so later ScheduleFills
		// measure their horizon from the current cycle, not a stale one.
		// Sound because no occupied slot lies in (ringNow, now] — that is
		// exactly what !ringDue established.
		if now > h.ringNow {
			h.ringNow = now
		}
		return nil
	}
	// Pop everything due — ring slots and heap prefix alike — then apply in
	// schedule (id) order, the order the former append-only queue preserved
	// naturally, so fills scheduled earlier install first even when a later
	// request completes sooner. Fill ids are allocated in schedule order, so
	// the id sort makes the merged ring+heap batch bit-identical to the
	// all-heap reference batch.
	h.due = h.due[:0]
	if ringDue {
		h.popDueRing(now)
	}
	if now > h.ringNow {
		h.ringNow = now
	}
	for len(h.pending) > 0 && h.pending[0].at <= now {
		h.due = append(h.due, h.heapPop())
	}
	sortFillsByID(h.due)
	h.done = h.done[:0]
	for _, f := range h.due {
		if f.cancelled {
			continue
		}
		cf := CompletedFill{ID: f.id, LineAddr: f.lineAddr, Sink: f.sink, Owner: f.owner}
		switch f.sink {
		case SinkCache:
			cf.Victim, cf.Evicted = h.L1D.Install(f.lineAddr)
			h.L2.Install(f.lineAddr)
		case SinkLFB:
			if !h.LFBuf.Alloc(f.lineAddr, f.owner) {
				// Buffer full: the line is dropped, never becoming visible.
				// SpecLFB stalls allocation at issue, so this is rare.
				cf.Sink = SinkNone
			}
			h.L2.Install(f.lineAddr)
		case SinkNone:
			// Data delivered to the core; hierarchy state untouched.
		}
		h.done = append(h.done, cf)
	}
	return h.done
}

// fillLess orders the heap by completion cycle, ties broken by schedule
// order so the pop sequence is deterministic.
func fillLess(a, b pendingFill) bool {
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}

// sortFillsByID insertion-sorts a due batch back into schedule order. The
// batch is the fills of a single cycle — almost always zero or one entry —
// so insertion sort beats any general-purpose sort here.
func sortFillsByID(fs []pendingFill) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].id < fs[j-1].id; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func (h *Hierarchy) heapPush(f pendingFill) {
	h.pending = append(h.pending, f)
	i := len(h.pending) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !fillLess(h.pending[i], h.pending[p]) {
			break
		}
		h.pending[i], h.pending[p] = h.pending[p], h.pending[i]
		i = p
	}
}

func (h *Hierarchy) heapPop() pendingFill {
	top := h.pending[0]
	last := len(h.pending) - 1
	h.pending[0] = h.pending[last]
	h.pending = h.pending[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && fillLess(h.pending[l], h.pending[min]) {
			min = l
		}
		if r < last && fillLess(h.pending[r], h.pending[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.pending[i], h.pending[min] = h.pending[min], h.pending[i]
		i = min
	}
	return top
}

// ringFirstOcc returns the offset of the first occupied ring slot past
// ringNow — i.e. the earliest resident completion cycle is ringNow+1+off —
// or fillRingSlots when the ring is empty. Rotating the 128-bit occupancy
// bitmap so slot ringNow+1 becomes bit 0 turns the cyclic minimum into two
// trailing-zero counts; this runs inside the quiescent-span wakeup query
// (NextReady) on every potentially-idle cycle, so it must not loop.
func (h *Hierarchy) ringFirstOcc() uint64 {
	base := (h.ringNow + 1) & (fillRingSlots - 1)
	lo, hi := h.ringOcc[0], h.ringOcc[1]
	if base >= 64 {
		lo, hi = hi, lo
		base -= 64
	}
	// Rotate the (hi,lo) pair right by base bits (shifts by 64 are defined
	// as 0 in Go, so base == 0 degenerates correctly).
	rlo := lo>>base | hi<<(64-base)
	rhi := hi>>base | lo<<(64-base)
	if rlo != 0 {
		return uint64(bits.TrailingZeros64(rlo))
	}
	if rhi != 0 {
		return uint64(64 + bits.TrailingZeros64(rhi))
	}
	return fillRingSlots
}

// ringHasDue reports whether any occupied ring slot holds fills due at or
// before cycle now. The common case — the core's once-per-cycle tick, where
// now == ringNow+1 — is a single bit test.
func (h *Hierarchy) ringHasDue(now uint64) bool {
	if now <= h.ringNow {
		return false
	}
	span := now - h.ringNow
	if span == 1 {
		s := now & (fillRingSlots - 1)
		return h.ringOcc[s>>6]&(1<<(s&63)) != 0
	}
	return h.ringFirstOcc() < span
}

// popDueRing moves every ring fill due at or before now into h.due and
// frees its slot. Order within the batch is irrelevant: Tick id-sorts the
// combined ring+heap batch before applying it.
func (h *Hierarchy) popDueRing(now uint64) {
	base := (h.ringNow + 1) & (fillRingSlots - 1)
	span := now - h.ringNow
	for wi, word := range h.ringOcc {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := uint64(wi<<6 + b)
			if span < fillRingSlots && (s-base)&(fillRingSlots-1) >= span {
				continue // completes after now; stays resident
			}
			h.due = append(h.due, h.ring[s]...)
			h.ringCount -= len(h.ring[s])
			h.ring[s] = h.ring[s][:0]
			h.ringOcc[wi] &^= 1 << uint(b)
		}
	}
}

// NoFillPending is NextReady's result when no fill is in flight: later
// than any real completion cycle, so min-folding it with other wakeup
// bounds needs no special case.
const NoFillPending = ^uint64(0)

// NextReady returns the completion cycle of the earliest in-flight fill —
// the minimum of the heap root and the earliest occupied calendar slot —
// or NoFillPending when both queues are empty. Quiescent cores use it to
// skip straight to the next cycle where Tick can do work: every Tick
// strictly before NextReady returns nil by definition, so the jump is
// bit-identical to ticking through the span cycle by cycle.
func (h *Hierarchy) NextReady() uint64 {
	next := NoFillPending
	if len(h.pending) > 0 {
		next = h.pending[0].at
	}
	if h.ringCount > 0 {
		if at := h.ringNow + 1 + h.ringFirstOcc(); at < next {
			next = at
		}
	}
	return next
}

// AdvanceTo advances the fill queue to cycle now in one step, applying
// every fill due at or before it, exactly as a Tick at that cycle would.
// It exists as the named counterpart of NextReady for the quiescent-span
// skip: AdvanceTo(NextReady()) replaces a run of no-op Ticks.
func (h *Hierarchy) AdvanceTo(now uint64) []CompletedFill {
	return h.Tick(now)
}

// PendingFills returns the number of fills still in flight (cancelled
// fills included until their completion cycle, matching the heap).
func (h *Hierarchy) PendingFills() int { return len(h.pending) + h.ringCount }

// DropPendingFills abandons all in-flight fills without applying them
// (m5exit / checkpoint-restore semantics between test cases). It also
// rewinds the ring's window to cycle 0: every clock rewind in the system
// (ResetForInput, checkpoint Restore, the primes) passes through here, so
// ringNow never runs ahead of the core clock.
func (h *Hierarchy) DropPendingFills() {
	h.pending = h.pending[:0]
	if h.ringCount > 0 {
		for wi, word := range h.ringOcc {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				h.ring[wi<<6+b] = h.ring[wi<<6+b][:0]
			}
			h.ringOcc[wi] = 0
		}
		h.ringCount = 0
	}
	h.ringNow = 0
}

// HierState is an opaque copy of the hierarchy's persistent state (caches
// and TLB). Transient state — MSHRs, LFB, pending fills — is not captured:
// it never survives across test cases anyway.
type HierState struct {
	l1d, l1i, l2 CacheState
	tlb          TLBState
}

// Save captures cache and TLB state for later replay.
func (h *Hierarchy) Save() *HierState {
	st := &HierState{}
	h.SaveInto(st)
	return st
}

// SaveInto captures cache and TLB state into st, reusing st's buffers so
// repeated checkpoints (one per validation replay) allocate nothing.
func (h *Hierarchy) SaveInto(st *HierState) {
	h.L1D.SaveInto(&st.l1d)
	h.L1I.SaveInto(&st.l1i)
	h.L2.SaveInto(&st.l2)
	h.DTLB.SaveInto(&st.tlb)
}

// Restore rewinds caches and TLB to a saved state and clears transient
// structures.
func (h *Hierarchy) Restore(st *HierState) {
	h.L1D.Restore(&st.l1d)
	h.L1I.Restore(&st.l1i)
	h.L2.Restore(&st.l2)
	h.DTLB.Restore(&st.tlb)
	h.MSHR.Reset()
	h.LFBuf.Reset()
	h.DropPendingFills()
	h.lastPrime = primeKindNone
}

// CancelFill marks an in-flight fill as cancelled (squash paths of
// InvisiSpec's speculative buffer and SpecLFB). A live id is in exactly
// one of the heap and the ring.
func (h *Hierarchy) CancelFill(id uint64) {
	for i := range h.pending {
		if h.pending[i].id == id {
			h.pending[i].cancelled = true
			return
		}
	}
	if h.ringCount == 0 {
		return
	}
	for wi, word := range h.ringOcc {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			slot := h.ring[wi<<6+b]
			for i := range slot {
				if slot[i].id == id {
					slot[i].cancelled = true
					return
				}
			}
		}
	}
}

// ScheduleFill enqueues a fill of lineAddr completing at cycle at. Fills
// inside the ring's horizon take an O(1) calendar slot; later ones take the
// heap.
func (h *Hierarchy) ScheduleFill(at, lineAddr uint64, sink FillSink, owner uint64) uint64 {
	h.nextFillID++
	f := pendingFill{id: h.nextFillID, at: at, lineAddr: lineAddr, sink: sink, owner: owner}
	if !h.heapOnly && at > h.ringNow && at-h.ringNow < fillRingSlots {
		s := at & (fillRingSlots - 1)
		h.ring[s] = append(h.ring[s], f)
		h.ringOcc[s>>6] |= 1 << (s & 63)
		h.ringCount++
	} else {
		h.heapPush(f)
	}
	return h.nextFillID
}

// BlockDataPort keeps new data accesses from starting before cycle until
// (rollback work on the cache's critical path).
func (h *Hierarchy) BlockDataPort(until uint64) {
	if until > h.portBusyUntil {
		h.portBusyUntil = until
	}
}

// ClearPortBlock lifts any data-port block (test-case reset).
func (h *Hierarchy) ClearPortBlock() { h.portBusyUntil = 0 }

// AccessData performs one data-side cache access at cycle now for virtual
// address va. The access covers a single cache line; the core splits
// line-crossing requests itself (split requests matter to CleanupSpec UV4).
func (h *Hierarchy) AccessData(now, va uint64, opts DataAccessOpts) DataAccessResult {
	var portWait int
	if now < h.portBusyUntil {
		portWait = int(h.portBusyUntil - now)
		now = h.portBusyUntil
	}
	la := h.L1D.LineAddr(va)
	var res DataAccessResult
	res.Latency = portWait

	hit := false
	if opts.UpdateLRU {
		hit = h.L1D.Touch(la)
	} else {
		hit = h.L1D.Contains(la)
	}
	if hit {
		res.L1Hit = true
		res.Latency += h.Cfg.LatL1
		return res
	}

	// L1 miss. InvisiSpec's UV1 bug evicts the replacement victim even for
	// requests that will not install.
	if opts.EvictOnMissFullSet && h.L1D.SetFull(la) {
		res.Victim, res.Evicted = h.L1D.EvictVictim(la)
	}

	if opts.UpdateLRU {
		res.L2Hit = h.L2.Touch(la)
	} else {
		res.L2Hit = h.L2.Contains(la)
	}
	missLat := h.Cfg.LatL2
	if !res.L2Hit {
		missLat += h.Cfg.LatMem
	}

	if opts.NoMSHR {
		complete := now + uint64(missLat)
		if opts.Sink != SinkNone {
			res.FillID = h.ScheduleFill(complete, la, opts.Sink, opts.Owner)
		}
		res.FillAt = complete
		res.Latency += h.Cfg.LatL1 + missLat
		return res
	}

	if busyUntil, ok := h.MSHR.Lookup(now, la); ok {
		// Coalesce with the in-flight fill of the same line. The data
		// arrives when that fill completes; if this requester demands a
		// more visible sink than the in-flight request (e.g. a committed
		// store joining an invisible speculative load's miss), its own
		// placement still happens at fill time.
		res.Coalesced = true
		res.FillAt = busyUntil
		res.Latency += h.Cfg.LatL1 + int(busyUntil-now)
		if opts.Sink != SinkNone {
			res.FillID = h.ScheduleFill(busyUntil, la, opts.Sink, opts.Owner)
		}
		return res
	}

	start := h.MSHR.EarliestFree(now)
	res.MSHRWait = int(start - now)
	complete := start + uint64(missLat)
	h.MSHR.Alloc(start, complete, la)
	if opts.Sink != SinkNone {
		res.FillID = h.ScheduleFill(complete, la, opts.Sink, opts.Owner)
	}
	res.FillAt = complete
	res.Latency += h.Cfg.LatL1 + res.MSHRWait + missLat
	return res
}

// AccessInst performs one instruction-side access at cycle now. Instruction
// misses always install (no defense in this work protects the L1I; that gap
// is the known InvisiSpec vulnerability KV1) and use an implicit,
// unbounded instruction-MSHR pool.
func (h *Hierarchy) AccessInst(now, va uint64) (latency int) {
	la := h.L1I.LineAddr(va)
	if h.L1I.Touch(la) {
		return h.Cfg.LatL1
	}
	missLat := h.Cfg.LatL2
	if !h.L2.Touch(la) {
		missLat += h.Cfg.LatMem
	}
	h.ScheduleFill(now+uint64(missLat), la, SinkNone, 0)
	// Instruction lines install immediately in the tag array: the fetch
	// unit blocks on the miss anyway, so by the time fetch resumes the line
	// is present. The SinkNone fill above only models MSHR-free timing.
	h.L1I.Install(la)
	h.L2.Install(la)
	return h.Cfg.LatL1 + missLat
}

// TranslateData translates the page of va at cycle now. When install is
// true a missing translation is brought into the D-TLB (this is the hook
// STT's KV3 bug abuses: tainted speculative stores install translations).
func (h *Hierarchy) TranslateData(now, va uint64, install bool) (latency int, hit bool) {
	page := va / isa.PageSize
	if h.DTLB.Touch(page) {
		return 0, true
	}
	if install {
		h.DTLB.Install(page)
	}
	return h.Cfg.LatTLBWalk, false
}

// PrimeBase is the base of the out-of-sandbox address region used to fill
// cache sets before a test (AMuLeT's C2 solution). It is far above any
// sandbox so primed lines can never alias test data, and it is aligned so
// that consecutive lines walk the sets in order.
const PrimeBase uint64 = 0x1000000

// ConflictAddr returns the way-th priming address for the given L1D set.
func (h *Hierarchy) ConflictAddr(set, way int) uint64 {
	sets := uint64(h.Cfg.L1D.Sets)
	return PrimeBase + (uint64(way)*sets+uint64(set))*uint64(h.Cfg.L1D.LineSize)
}

// DrainFills applies every in-flight fill by ticking exactly to each next
// ready-cycle until the queue is empty. Unlike a far-future sentinel tick,
// the clock never advances past the last scheduled ready-cycle, so no
// sentinel-derived value can exist anywhere afterwards. (LRU timestamps are
// use-order counters, never cycles, so they were sentinel-proof already;
// the pending-fill ready-cycles this drains are the only cycle-domain state
// a prime creates.)
func (h *Hierarchy) DrainFills() {
	for h.PendingFills() > 0 {
		h.Tick(h.NextReady())
	}
}

// PrimeL1D performs the paper's fill prime (§3.2 C2): every L1D set is
// filled with conflicting out-of-sandbox addresses by simulating the fill
// requests through the hierarchy — which also displaces the D-TLB with the
// priming pages — and the priming lines' L2 copies are dropped again so the
// L2 stays warm with sandbox lines across the inputs of a program. This is
// the single shared implementation behind both the executor's per-case
// prime and the gadget tests' primed runs.
//
// With incremental set, and when the previous prime was also a fill prime,
// only the state the last test case dirtied is re-primed: dirty L1D sets
// are restored from the canonical template, the D-TLB is rebuilt only if
// touched, and the L2 install+invalidate pass replays only the conflict
// lines whose L2 sets were mutated (for an untouched L2 set the full pass
// is a no-op apart from the LRU clock, which is advanced to compensate).
// The result is bit-identical to the full prime, pinned by tests.
//
// The incremental replay is also taken from a bulk-dirty state (the state
// Reset and Restore leave: every set marked, the TLB touched) once the
// template exists. With nothing clean, the replay restores every L1D set
// and replays every conflict line against the L2 — the full pass itself,
// minus the simulated fill traffic — so no clean-set assumption is left
// to violate even though the prior state is not a canonical prime state.
// This is what makes the once-per-program prime after a boot-checkpoint
// restore incremental rather than a full re-simulation.
func (h *Hierarchy) PrimeL1D(incremental bool) {
	if incremental && h.tplValid &&
		(h.lastPrime == primeKindFill ||
			(h.L1D.allDirty() && h.L2.allDirty() && h.DTLB.touched)) {
		h.primeFillIncremental()
	} else {
		h.primeFillFull()
	}
	h.lastPrime = primeKindFill
}

// primeFillFull is the reference fill prime: correct from any prior state.
func (h *Hierarchy) primeFillFull() {
	h.L1D.InvalidateAll()
	h.DTLB.InvalidateAll()
	h.LFBuf.Reset()
	h.MSHR.Reset()
	h.DropPendingFills()
	now := uint64(0)
	cfg := h.Cfg.L1D
	for w := 0; w < cfg.Ways; w++ {
		for s := 0; s < cfg.Sets; s++ {
			addr := h.ConflictAddr(s, w)
			res := h.AccessData(now, addr, DataAccessOpts{
				UpdateLRU: true, Sink: SinkCache, NoMSHR: true,
			})
			now += uint64(res.Latency)
			h.Tick(now)
			// Each fill page also displaces a TLB entry, evicting any
			// sandbox translations (the paper resets the TLB this way
			// for InvisiSpec and STT).
			h.DTLB.Install(addr / isa.PageSize)
		}
	}
	h.DrainFills()
	// The priming lines' L2 copies are dropped again (they conflict with
	// nothing and only the L1D occupancy matters), keeping the L2 for
	// sandbox lines.
	for w := 0; w < cfg.Ways; w++ {
		for s := 0; s < cfg.Sets; s++ {
			h.L2.Invalidate(h.ConflictAddr(s, w))
		}
	}
	h.MSHR.Reset()
	h.DropPendingFills()

	// The post-prime L1D and D-TLB state depends only on the geometry:
	// capture it once as the template incremental primes restore from.
	if !h.tplValid {
		h.tplL1D = append(h.tplL1D[:0], h.L1D.lines...)
		h.tplL1DTick = h.L1D.useTick
		h.tplTLB = append(h.tplTLB[:0], h.DTLB.entries...)
		h.tplTLBTick = h.DTLB.useTick
		ways := h.Cfg.L1D.Ways
		h.tplL1DDig = h.tplL1DDig[:0]
		for s := 0; s < h.Cfg.L1D.Sets; s++ {
			var d uint64
			for _, ln := range h.tplL1D[s*ways : (s+1)*ways] {
				if ln.key != 0 {
					d += Mix64(ln.key - 1)
				}
			}
			h.tplL1DDig = append(h.tplL1DDig, d)
		}
		h.tplTLBDig = h.DTLB.ContentDigest()
		h.tplValid = true
	}
	h.L1D.clearDirtyBits()
	h.L2.clearDirtyBits()
	h.DTLB.clearTouched()
}

// primeFillIncremental re-establishes the full prime's exact post-state by
// touching only what the previous case dirtied.
func (h *Hierarchy) primeFillIncremental() {
	// L1D: clean sets already hold the canonical primed lines; restore the
	// dirty ones from the template and rewind the LRU clock.
	l1 := h.L1D
	ways := l1.cfg.Ways
	for wi, word := range l1.dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			if s >= l1.cfg.Sets {
				break
			}
			base := s * ways
			copy(l1.lines[base:base+ways], h.tplL1D[base:base+ways])
			l1.setDig[s] = h.tplL1DDig[s]
		}
		// The restored sets now carry the exact template digests, so their
		// staleness flags clear along with the prime-dirty bits. The
		// snapshot segments have no template to restore from, so they go
		// stale instead and refresh on the next SnapshotInto.
		if l1.snapDirty != nil {
			l1.snapDirty[wi] |= l1.dirty[wi]
		}
		l1.digDirty[wi] &^= l1.dirty[wi]
		l1.dirty[wi] = 0
	}
	l1.useTick = h.tplL1DTick

	if h.DTLB.touched {
		copy(h.DTLB.entries, h.tplTLB)
		h.DTLB.useTick = h.tplTLBTick
		h.DTLB.clearTouched()
		h.DTLB.dig = h.tplTLBDig
		h.DTLB.digValid = true
	}
	if h.MSHR.Used() {
		h.MSHR.Reset()
	}
	if h.LFBuf.Used() {
		h.LFBuf.Reset()
	}
	h.DropPendingFills()

	// L2: the full prime installs then invalidates every conflict line, in
	// (way, set) order with the invalidation pass trailing all installs.
	// For an L2 set untouched since the previous prime that sequence is a
	// no-op — the way the conflict line vacated is still invalid, so the
	// install takes it back and the invalidate frees it — except for the
	// LRU clock, which advances once per install. The replay therefore
	// walks the L2 dirty bitmap and handles only dirtied sets (where an
	// install can genuinely evict a sandbox line), advancing the clock for
	// everything skipped. A dirty set whose invalid ways absorb all of its
	// conflict lines is itself a content no-op — the install-then-invalidate
	// round trip cannot displace a live line — so only its clock advance
	// remains. Reordering replays by set is immaterial: victim choice is
	// per-set, and the conflict lines' own LRU stamps die with the trailing
	// invalidates.
	cfg := h.Cfg.L1D
	l2 := h.L2
	if h.conflictScan == nil {
		for w := 0; w < cfg.Ways; w++ {
			for s := 0; s < cfg.Sets; s++ {
				h.conflictScan = append(h.conflictScan, h.ConflictAddr(s, w))
			}
		}
		counts := make([]int32, l2.cfg.Sets+1)
		for _, cl := range h.conflictScan {
			counts[(cl>>l2.lineShift)&l2.setMask+1]++
		}
		for s := 0; s < l2.cfg.Sets; s++ {
			counts[s+1] += counts[s]
		}
		h.conflictSetOff = counts
		h.conflictBySet = make([]uint64, len(h.conflictScan))
		fill := append([]int32(nil), counts[:l2.cfg.Sets]...)
		for _, cl := range h.conflictScan {
			s := (cl >> l2.lineShift) & l2.setMask
			h.conflictBySet[fill[s]] = cl
			fill[s]++
		}
	}
	replay := h.primeReplay[:0]
	for wi, word := range l2.dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			if s >= l2.cfg.Sets {
				break
			}
			cls := h.conflictBySet[h.conflictSetOff[s]:h.conflictSetOff[s+1]]
			if len(cls) == 0 || l2.setAbsorbsInstalls(s, cls) {
				continue
			}
			replay = append(replay, cls...)
		}
	}
	for _, cl := range replay {
		l2.Install(cl)
	}
	for _, cl := range replay {
		l2.Invalidate(cl)
	}
	h.primeReplay = replay
	l2.useTick += uint64(cfg.Ways*cfg.Sets - len(replay))
	l2.clearDirtyBits()
}

// PrimeInvalidate resets the L1D, L1I, D-TLB and transient structures to a
// clean state through the direct simulator hook (CleanupSpec and SpecLFB
// campaigns). The L2 is deliberately left warm, exactly as in the fill
// prime. With incremental set, and when the previous prime was also an
// invalidate prime, only the sets and entries dirtied since then are
// cleared — bit-identical to the full reset.
func (h *Hierarchy) PrimeInvalidate(incremental bool) {
	if incremental && h.lastPrime == primeKindInvalidate {
		h.L1D.InvalidateDirty()
		h.L1I.InvalidateDirty()
		if h.DTLB.touched {
			h.DTLB.InvalidateAll()
			h.DTLB.clearTouched()
		}
		if h.MSHR.Used() {
			h.MSHR.Reset()
		}
		if h.LFBuf.Used() {
			h.LFBuf.Reset()
		}
		h.DropPendingFills()
	} else {
		h.L1D.InvalidateAll()
		h.L1I.InvalidateAll()
		h.DTLB.InvalidateAll()
		h.LFBuf.Reset()
		h.MSHR.Reset()
		h.DropPendingFills()
		h.L1D.clearDirtyBits()
		h.L1I.clearDirtyBits()
		h.DTLB.clearTouched()
	}
	h.lastPrime = primeKindInvalidate
}

// InvalidateL1I clears the instruction cache ahead of a test case (trace
// formats that observe the L1I). The incremental path clears only the sets
// instruction fetch dirtied since the last clear.
func (h *Hierarchy) InvalidateL1I(incremental bool) {
	if incremental {
		h.L1I.InvalidateDirty()
	} else {
		h.L1I.InvalidateAll()
		h.L1I.clearDirtyBits()
	}
}
