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
	// The fill prime's L2 replay finds a set's conflict lines by line-size
	// arithmetic, so every level must share one line size.
	if c.L1I.LineSize != c.L1D.LineSize || c.L2.LineSize != c.L1D.LineSize {
		return fmt.Errorf("mem: L1D, L1I and L2 line sizes must match, got %d, %d, %d",
			c.L1D.LineSize, c.L1I.LineSize, c.L2.LineSize)
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

	// pending is the pending-fill queue, a binary min-heap ordered by
	// (at, id): the root is always the next fill to complete, so a quiescent
	// Tick and NextReady are one look at the root. due and done are scratch
	// buffers reused across Ticks, keeping the per-cycle path
	// allocation-free in steady state.
	pending    []pendingFill
	due        []pendingFill
	done       []CompletedFill
	nextFillID uint64

	// portBusyUntil blocks the data port: accesses issued before this
	// cycle wait for it. CleanupSpec's rollback raises it, putting cleanup
	// work on the critical path of execution (the unXpec timing channel).
	portBusyUntil uint64

	// Prime template: the canonical post-fill-prime L1D and D-TLB state,
	// captured once from a simulated prime (the state is independent of
	// what preceded the prime, so one capture serves every later prime).
	// tplBase is tplL1D's content, the base of fill-primed traces; it is
	// allocated on its own, so a retained trace pins only it. It is nil
	// until the first simulated prime.
	tplL1D     []cacheLine
	tplL1DTick uint64
	tplBase    *CacheBase
	tplTLB     []tlbEntry
	tplTLBTick uint64
}

// NewHierarchy builds the hierarchy. It panics on invalid configuration.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		Cfg:   cfg,
		L1D:   NewCache(cfg.L1D),
		L1I:   NewCache(cfg.L1I),
		L2:    NewCache(cfg.L2),
		MSHR:  NewMSHRFile(cfg.MSHRs),
		DTLB:  NewTLB(cfg.TLBEntries),
		LFBuf: NewLFB(cfg.LFBEntries),
	}
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
}

// Tick applies every pending fill due at or before cycle now and returns
// what was installed, in schedule order. Cancelled fills are dropped. The
// returned slice is a buffer owned by the hierarchy, valid until the next
// Tick; no caller retains it past the cycle.
func (h *Hierarchy) Tick(now uint64) []CompletedFill {
	if len(h.pending) == 0 || h.pending[0].at > now {
		return nil
	}
	// Pop everything due, then apply in schedule (id) order, the order the
	// former append-only queue preserved naturally, so fills scheduled
	// earlier install first even when a later request completes sooner
	// (fill ids are allocated in schedule order).
	h.due = h.due[:0]
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

// NoFillPending is NextReady's result when no fill is in flight: later
// than any real completion cycle, so min-folding it with other wakeup
// bounds needs no special case.
const NoFillPending = ^uint64(0)

// NextReady returns the completion cycle of the earliest in-flight fill (the
// heap root), or NoFillPending when none is. Quiescent cores use it to
// skip straight to the next cycle where Tick can do work: every Tick
// strictly before NextReady returns nil by definition, so the jump is
// bit-identical to ticking through the span cycle by cycle.
func (h *Hierarchy) NextReady() uint64 {
	if len(h.pending) == 0 {
		return NoFillPending
	}
	return h.pending[0].at
}

// PendingFills returns the number of fills still in flight (cancelled
// fills included until their completion cycle).
func (h *Hierarchy) PendingFills() int { return len(h.pending) }

// DropPendingFills abandons all in-flight fills without applying them
// (m5exit / checkpoint-restore semantics between test cases).
func (h *Hierarchy) DropPendingFills() { h.pending = h.pending[:0] }

// HierState is an opaque copy of the hierarchy's persistent state (caches
// and TLB). Transient state — MSHRs, LFB, pending fills — is not captured:
// it never survives across test cases anyway.
type HierState struct {
	l1d, l1i, l2 CacheState
	tlb          TLBState
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
}

// CancelFill marks an in-flight fill as cancelled (squash paths of
// InvisiSpec's speculative buffer and SpecLFB).
func (h *Hierarchy) CancelFill(id uint64) {
	for i := range h.pending {
		if h.pending[i].id == id {
			h.pending[i].cancelled = true
			return
		}
	}
}

// ScheduleFill enqueues a fill of lineAddr completing at cycle at and
// returns its id.
func (h *Hierarchy) ScheduleFill(at, lineAddr uint64, sink FillSink, owner uint64) uint64 {
	h.nextFillID++
	h.heapPush(pendingFill{id: h.nextFillID, at: at, lineAddr: lineAddr, sink: sink, owner: owner})
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
	if hit, _, _ := h.DTLB.lookup(va/isa.PageSize, install); hit {
		return 0, true
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
// With incremental set, once a simulated prime has captured the template,
// the prime restores instead of simulating, from any prior state. The
// caches' bases say what is already canonical: an L1D set that is clean
// over the template base still holds the template, so only the dirty sets
// are copied back (every set, when the L1D's base is another one). The
// D-TLB is copied whole and the transient structures are reset. In the L2,
// whose dirty bitmap only the fill prime clears, the install+invalidate
// pass is replayed only in dirty sets: in a set untouched since the last
// fill prime it changes nothing but the LRU clock. The result is
// bit-identical to the simulated prime, pinned by tests.
func (h *Hierarchy) PrimeL1D(incremental bool) {
	if incremental && h.tplBase != nil {
		h.primeFillIncremental()
	} else {
		h.primeFillFull()
	}
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
	if h.tplBase == nil {
		h.tplL1D = append(h.tplL1D[:0], h.L1D.lines...)
		h.tplL1DTick = h.L1D.useTick
		h.tplTLB = append(h.tplTLB[:0], h.DTLB.entries...)
		h.tplTLBTick = h.DTLB.useTick
		h.tplBase = h.L1D.newBase()
	}
	h.L1D.rebase(h.tplBase)
	h.L2.rebase(nil)
}

// primeFillIncremental re-establishes the full prime's exact post-state by
// touching only what differs from it.
func (h *Hierarchy) primeFillIncremental() {
	l1 := h.L1D
	if l1.base != h.tplBase {
		l1.markAllDirty()
	}
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
		}
	}
	l1.useTick = h.tplL1DTick
	l1.rebase(h.tplBase)

	copy(h.DTLB.entries, h.tplTLB)
	h.DTLB.useTick = h.tplTLBTick
	h.MSHR.Reset()
	h.LFBuf.Reset()
	h.DropPendingFills()

	// L2: the full prime installs then invalidates the n conflict lines
	// PrimeBase + k·LineSize (k < n, k = way·Sets + set of the L1D, so scan
	// order is increasing k), the invalidation pass trailing all installs.
	// For an L2 set untouched since the previous fill prime that sequence
	// is a no-op — the ways the conflict lines vacated are still invalid,
	// so the installs take them back and the invalidates free them —
	// except for the LRU clock, which advances once per install. The replay
	// therefore handles only dirty sets, whose conflict lines are every
	// L2.Sets-th k from the set's first, and advances the clock for the
	// rest. A dirty set whose invalid ways absorb all of its conflict lines
	// is itself a content no-op, so only its clock advance remains.
	// Replaying set by set is immaterial: victim choice is per-set, and the
	// conflict lines' own LRU stamps die with the invalidates.
	l2 := h.L2
	n := h.Cfg.L1D.Sets * h.Cfg.L1D.Ways
	sets, first := l2.cfg.Sets, l2.SetIndex(PrimeBase)
	replayed := 0
	for wi, word := range l2.dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			if s >= sets {
				break
			}
			k0 := (s - first) & (sets - 1)
			if k0 >= n || l2.setAbsorbsInstalls(s, k0, n) {
				continue
			}
			for k := k0; k < n; k += sets {
				l2.Install(PrimeBase + uint64(k)<<l2.lineShift)
				replayed++
			}
			for k := k0; k < n; k += sets {
				l2.Invalidate(PrimeBase + uint64(k)<<l2.lineShift)
			}
		}
	}
	l2.useTick += uint64(n - replayed)
	l2.rebase(nil)
}

// PrimeInvalidate resets the L1D, L1I, D-TLB and transient structures to a
// clean state through the direct simulator hook (CleanupSpec and SpecLFB
// campaigns). The L2 is deliberately left warm, exactly as in the fill
// prime. With incremental set, an L1 whose base is empty clears only its
// dirty sets (Cache.InvalidateDirty; over any other base it clears all),
// bit-identical to the full reset.
func (h *Hierarchy) PrimeInvalidate(incremental bool) {
	if incremental {
		h.L1D.InvalidateDirty()
		h.L1I.InvalidateDirty()
	} else {
		h.L1D.InvalidateAll()
		h.L1I.InvalidateAll()
	}
	h.DTLB.InvalidateAll()
	h.MSHR.Reset()
	h.LFBuf.Reset()
	h.DropPendingFills()
	h.L1D.rebase(&h.L1D.empty)
	h.L1I.rebase(&h.L1I.empty)
}

// InvalidateL1I clears the instruction cache ahead of a test case (trace
// formats that observe the L1I). The incremental path clears only the sets
// instruction fetch dirtied since the last clear.
func (h *Hierarchy) InvalidateL1I(incremental bool) {
	if incremental {
		h.L1I.InvalidateDirty()
	} else {
		h.L1I.InvalidateAll()
		h.L1I.rebase(&h.L1I.empty)
	}
}
