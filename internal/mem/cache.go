// Package mem implements the memory-system substrate of the AMuLeT-Go
// simulator: set-associative caches with LRU replacement, miss-status
// handling registers (MSHRs), a data TLB, a line-fill buffer, and the
// hierarchy glue (latencies, pending fills, split requests). These are the
// structures the paper's leaks contend on, and their sizes are plain
// configuration so that leakage amplification (§3.4) needs no code changes.
package mem

import (
	"fmt"
	"math/bits"
	"slices"
)

// CacheConfig describes one cache array.
type CacheConfig struct {
	Sets     int // number of sets, power of two
	Ways     int // associativity
	LineSize int // bytes per line, power of two
}

// Validate reports configuration problems.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: cache sets must be a power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: cache ways must be positive, got %d", c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: line size must be a power of two, got %d", c.LineSize)
	}
	return nil
}

// cacheLine is one way of one set. key encodes validity and the tag in a
// single word — addr+1 for a valid line, 0 for an invalid one — so the way
// scan of a lookup is one comparison per way over a compact 16-byte entry.
type cacheLine struct {
	key     uint64 // line address + 1, or 0 when invalid
	lastUse uint64 // LRU timestamp
}

func (l cacheLine) valid() bool  { return l.key != 0 }
func (l cacheLine) addr() uint64 { return l.key - 1 }

// Cache is a set-associative cache with true-LRU replacement. It tracks
// tags only: data contents live in the architectural memory image, which is
// all the micro-architectural traces need. The ways of all sets live in one
// flat array (set s occupies lines[s*Ways : (s+1)*Ways]), so lookups walk
// contiguous memory and checkpointing a cache is a single copy.
type Cache struct {
	cfg     CacheConfig
	lines   []cacheLine // Sets*Ways entries, set-major
	useTick uint64

	// Geometry derived at construction: LineSize and Sets are powers of
	// two, so indexing is a shift and a mask instead of runtime divisions
	// on the hottest lookup path.
	lineShift uint
	setMask   uint64
	lineMask  uint64

	// dirty is a per-set bitmap of sets mutated (install, eviction,
	// invalidation or an LRU-updating hit) since the last rebase: a clean
	// set holds its base content. The prime paths restore or clear only the
	// dirty sets, and DeltaInto walks only those; a fresh cache starts
	// all-dirty.
	dirty []uint64

	// base is the content every clean set holds: the canonical state the
	// last rebase recorded (the fill prime's template, or empty). It is nil
	// when the clean sets hold no canonical content, as in the L2, which
	// primes keep warm. empty is this cache's all-invalid base, which
	// holds no lines and so costs no allocation.
	base  *CacheBase
	empty CacheBase
}

// NewCache builds a cache. It panics on invalid configuration: cache
// geometry is validated at simulator construction.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		lines:     make([]cacheLine, cfg.Sets*cfg.Ways),
		lineShift: shift,
		setMask:   uint64(cfg.Sets - 1),
		lineMask:  ^(uint64(cfg.LineSize) - 1),
		dirty:     make([]uint64, (cfg.Sets+63)/64),
	}
	c.empty = c.emptyBase()
	c.base = &c.empty
	c.markAllDirty()
	return c
}

// markDirty records a mutation of the set containing addr.
func (c *Cache) markDirty(addr uint64) {
	s := (addr >> c.lineShift) & c.setMask
	c.dirty[s>>6] |= 1 << (s & 63)
}

// markAllDirty conservatively marks every set as mutated (bulk state
// changes: Restore, InvalidateAll, construction).
func (c *Cache) markAllDirty() {
	for i := range c.dirty {
		c.dirty[i] = ^uint64(0)
	}
}

// rebase resets the dirty bitmap and records base as the content every set
// now holds (nil: no canonical content). Only the prime paths call it,
// immediately after re-establishing a canonical state, so "clean" always
// means "bit-identical to that canonical state".
func (c *Cache) rebase(base *CacheBase) {
	clear(c.dirty)
	c.base = base
}

// setAbsorbsInstalls reports whether installing the fill prime's conflict
// lines of set s (PrimeBase + k·LineSize for k = k0, k0+Sets, … below n)
// and then invalidating them all would leave the set's content untouched:
// none is already resident, and the invalid ways outnumber the installs,
// so no install ever evicts a live line. The prime replay uses it to skip
// such round trips wholesale; only the LRU clock advance remains, which the
// caller compensates.
func (c *Cache) setAbsorbsInstalls(s, k0, n int) bool {
	end := PrimeBase + uint64(n)<<c.lineShift
	free := 0
	for _, ln := range c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways] {
		if ln.key == 0 {
			free++
		} else if a := ln.addr(); a >= PrimeBase && a < end {
			return false // in set s and the range: one of its conflict lines
		}
	}
	return free >= (n-k0+c.cfg.Sets-1)/c.cfg.Sets
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr & c.lineMask
}

// SetIndex returns the set index for addr.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// setBase returns the index of the first way of the set containing addr.
func (c *Cache) setBase(addr uint64) int {
	return c.SetIndex(addr) * c.cfg.Ways
}

// find returns the flat line index holding addr. The way scan is unrolled
// four-wide over the packed key words — the SIMD-style batched key compare
// (cf. the takum SIMD ISA streamlining in PAPERS.md) that a vectorizing
// backend would emit; with 8-way sets the scan is two straight-line blocks
// instead of a data-dependent loop, and profiles showed the rolled scan at
// ~16% of campaign CPU.
func (c *Cache) find(addr uint64) (idx int, ok bool) {
	key := c.LineAddr(addr) + 1
	base := c.setBase(addr)
	lines := c.lines[base : base+c.cfg.Ways]
	w := 0
	for ; w+4 <= len(lines); w += 4 {
		if lines[w].key == key {
			return base + w, true
		}
		if lines[w+1].key == key {
			return base + w + 1, true
		}
		if lines[w+2].key == key {
			return base + w + 2, true
		}
		if lines[w+3].key == key {
			return base + w + 3, true
		}
	}
	for ; w < len(lines); w++ {
		if lines[w].key == key {
			return base + w, true
		}
	}
	return 0, false
}

// Contains reports whether the line holding addr is present, without
// updating replacement state.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.find(addr)
	return ok
}

// Touch looks up addr and, on a hit, updates the LRU state. It returns
// whether the access hit.
func (c *Cache) Touch(addr uint64) bool {
	idx, ok := c.find(addr)
	if !ok {
		return false
	}
	c.useTick++
	c.lines[idx].lastUse = c.useTick
	c.markDirty(addr)
	return true
}

// SetFull reports whether the set containing addr has no invalid way.
func (c *Cache) SetFull(addr uint64) bool {
	base := c.setBase(addr)
	for _, ln := range c.lines[base : base+c.cfg.Ways] {
		if !ln.valid() {
			return false
		}
	}
	return true
}

// victimWay returns the way Install would replace in set (an invalid way if
// one exists, otherwise the LRU way).
func victimWay(set []cacheLine) int {
	lru, lruWay := ^uint64(0), 0
	for w := range set {
		if !set[w].valid() {
			return w
		}
		if set[w].lastUse < lru {
			lru = set[w].lastUse
			lruWay = w
		}
	}
	return lruWay
}

// Install brings the line holding addr into the cache, evicting the LRU
// line if the set is full. If the line is already present it only refreshes
// LRU state. It returns the evicted line address, if any.
func (c *Cache) Install(addr uint64) (victim uint64, evicted bool) {
	if c.Touch(addr) {
		return 0, false
	}
	base := c.setBase(addr)
	set := c.lines[base : base+c.cfg.Ways]
	w := victimWay(set)
	if set[w].valid() {
		victim, evicted = set[w].addr(), true
	}
	c.useTick++
	set[w] = cacheLine{key: c.LineAddr(addr) + 1, lastUse: c.useTick}
	c.markDirty(addr)
	return victim, evicted
}

// EvictVictim performs only the replacement half of a miss: it evicts the
// line that Install(addr) would have replaced, without installing addr.
// This reproduces InvisiSpec's UV1 implementation bug, where a speculative
// load miss on a full set triggers an L1 replacement even though the
// speculative line itself stays invisible. It returns the evicted address.
func (c *Cache) EvictVictim(addr uint64) (victim uint64, evicted bool) {
	if c.Contains(addr) {
		return 0, false
	}
	base := c.setBase(addr)
	set := c.lines[base : base+c.cfg.Ways]
	w := victimWay(set)
	if !set[w].valid() {
		return 0, false
	}
	victim = set[w].addr()
	set[w] = cacheLine{}
	c.markDirty(addr)
	return victim, true
}

// Invalidate removes the line holding addr. It reports whether a line was
// removed.
func (c *Cache) Invalidate(addr uint64) bool {
	idx, ok := c.find(addr)
	if !ok {
		return false
	}
	c.lines[idx] = cacheLine{}
	c.markDirty(addr)
	return true
}

// InvalidateAll clears the whole cache (the simulator-hook reset used for
// CleanupSpec and SpecLFB campaigns).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
	c.useTick = 0
	c.markAllDirty()
}

// InvalidateDirty clears only the sets mutated since the dirty bitmap was
// last cleared, then resets the LRU clock — bit-identical to InvalidateAll
// whenever the bitmap's clean sets are already all-invalid, that is when
// the base is empty (this method itself, or a full invalidate in the prime
// paths, left them so). Over any other base, clean sets may hold lines, so
// it is InvalidateAll.
func (c *Cache) InvalidateDirty() {
	if c.base != &c.empty {
		c.InvalidateAll()
		return
	}
	ways := c.cfg.Ways
	for wi, word := range c.dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := wi<<6 + b
			if s >= c.cfg.Sets {
				break
			}
			base := s * ways
			clear(c.lines[base : base+ways])
		}
		c.dirty[wi] = 0
	}
	c.useTick = 0
}

// Snapshot returns the valid line addresses in canonical order: set-major,
// address-sorted within each set. The cache part of a micro-architectural
// trace.
func (c *Cache) Snapshot() []uint64 {
	return c.SnapshotInto(nil)
}

// SnapshotInto appends the valid line addresses to buf (usually buf[:0] of
// a reused trace buffer) in canonical order and returns the extended slice,
// so the steady-state trace-extraction path allocates nothing, and a fresh
// buffer is grown once to the cache's capacity.
//
// Canonical order is set-major with each set's lines address-sorted — not
// globally sorted. Every line maps to exactly one set, so two caches hold
// the same line multiset if and only if their canonical snapshots are
// element-wise equal, which is all that trace comparison and determinism
// need; the old globally-sorted form bought nothing beyond that, yet its
// bottom-up run merge was ~19% of campaign CPU once priming was amortized.
// The human-readable diff renderers sort their scratch copies on demand.
//
// The executor's traces keep the cheaper DeltaInto instead; this full walk
// is the delta's oracle (CacheDelta.AppendLines must reproduce it).
func (c *Cache) SnapshotInto(buf []uint64) []uint64 {
	buf = slices.Grow(buf, len(c.lines))
	for s := 0; s < c.cfg.Sets; s++ {
		buf = c.appendSet(buf, s)
	}
	return buf
}

// appendSet appends the valid line addresses of set s to buf, sorted (an
// insertion sort over at most Ways entries).
func (c *Cache) appendSet(buf []uint64, s int) []uint64 {
	runStart := len(buf)
	for _, ln := range c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways] {
		if ln.key == 0 {
			continue
		}
		addr := ln.key - 1
		i := len(buf)
		buf = append(buf, addr)
		for i > runStart && buf[i-1] > addr {
			buf[i] = buf[i-1]
			i--
		}
		buf[i] = addr
	}
	return buf
}

// CacheState is an opaque copy of a cache's content, used to replay test
// cases from an identical micro-architectural context during violation
// validation.
type CacheState struct {
	cfg     CacheConfig
	lines   []cacheLine
	useTick uint64
}

// SaveInto captures the full tag state into st, reusing st's buffers. The
// validation replay path saves a context per µarch-trace mismatch, so the
// checkpoint buffer is recycled rather than reallocated.
func (c *Cache) SaveInto(st *CacheState) {
	st.cfg = c.cfg
	st.lines = append(st.lines[:0], c.lines...)
	st.useTick = c.useTick
}

// Restore rewinds the cache to a previously saved state. It panics if the
// state came from a cache with different geometry.
func (c *Cache) Restore(st *CacheState) {
	if st.cfg != c.cfg {
		panic("mem: CacheState geometry mismatch")
	}
	copy(c.lines, st.lines)
	c.useTick = st.useTick
	c.markAllDirty()
}
