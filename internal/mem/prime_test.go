package mem

import (
	"math/rand"
	"testing"
)

// primeTestConfigs are the geometries the bit-identity tests sweep: the
// paper default, the leakage-amplification shrink (2-way L1D, 2 MSHRs),
// and a deliberately undersized L2 whose sets each hold several conflict
// lines, stressing the install-then-invalidate replay ordering.
func primeTestConfigs() []HierConfig {
	def := DefaultHierConfig()
	amp := def
	amp.L1D.Ways = 2
	amp.MSHRs = 2
	tinyL2 := def
	tinyL2.L1D = CacheConfig{Sets: 16, Ways: 4, LineSize: 64}
	tinyL2.L2 = CacheConfig{Sets: 8, Ways: 4, LineSize: 64}
	return []HierConfig{def, amp, tinyL2}
}

// hierEqual compares the complete persistent and transient state of two
// hierarchies bit for bit (fill IDs excluded: they are schedule-local and
// never part of a checkpoint).
func hierEqual(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	cacheEqual := func(name string, ca, cb *Cache) {
		t.Helper()
		if ca.useTick != cb.useTick {
			t.Errorf("%s useTick %d != %d", name, ca.useTick, cb.useTick)
		}
		for i := range ca.lines {
			if ca.lines[i] != cb.lines[i] {
				t.Fatalf("%s line %d: %+v != %+v", name, i, ca.lines[i], cb.lines[i])
			}
		}
	}
	cacheEqual("L1D", a.L1D, b.L1D)
	cacheEqual("L1I", a.L1I, b.L1I)
	cacheEqual("L2", a.L2, b.L2)
	if a.DTLB.useTick != b.DTLB.useTick {
		t.Errorf("DTLB useTick %d != %d", a.DTLB.useTick, b.DTLB.useTick)
	}
	for i := range a.DTLB.entries {
		if a.DTLB.entries[i] != b.DTLB.entries[i] {
			t.Fatalf("DTLB entry %d: %+v != %+v", i, a.DTLB.entries[i], b.DTLB.entries[i])
		}
	}
	if la, lb := len(a.MSHR.busy), len(b.MSHR.busy); la != lb {
		t.Fatalf("MSHR busy count %d != %d", la, lb)
	}
	for i := range a.MSHR.busy {
		if a.MSHR.busy[i] != b.MSHR.busy[i] {
			t.Fatalf("MSHR entry %d differs", i)
		}
	}
	for i := range a.LFBuf.entries {
		if a.LFBuf.entries[i] != b.LFBuf.entries[i] {
			t.Fatalf("LFB entry %d differs", i)
		}
	}
	if len(a.pending) != 0 || len(b.pending) != 0 {
		t.Errorf("pending fills survived a prime: %d / %d", len(a.pending), len(b.pending))
	}
}

// primeWorkload drives data, instruction and translation traffic through a
// hierarchy the way a test case does — installs, LRU touches, LFB fills,
// UV1 forced evictions and ticks — deterministically from rng.
func primeWorkload(h *Hierarchy, rng *rand.Rand, ops int) {
	now := uint64(0)
	for i := 0; i < ops; i++ {
		now += uint64(1 + rng.Intn(5))
		switch rng.Intn(6) {
		case 0, 1:
			addr := uint64(rng.Intn(1 << 14))
			res := h.AccessData(now, addr, DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
			_ = res
		case 2:
			addr := uint64(rng.Intn(1 << 14))
			h.AccessData(now, addr, DataAccessOpts{Sink: SinkLFB, Owner: uint64(i)})
		case 3:
			addr := uint64(rng.Intn(1 << 14))
			h.AccessData(now, addr, DataAccessOpts{Sink: SinkNone, EvictOnMissFullSet: true})
		case 4:
			h.AccessInst(now, uint64(0x400000+rng.Intn(1<<12)))
		case 5:
			h.TranslateData(now, uint64(rng.Intn(1<<16)), true)
		}
		h.Tick(now)
	}
	h.Tick(now + 1000)
	// Mirror the between-cases checkpoint-restore semantics the core
	// applies (ResetForInput): in-flight requests are abandoned.
	h.MSHR.Reset()
	h.DropPendingFills()
}

// TestPrimeFillIncrementalBitIdentical pins the tentpole invariant: after
// arbitrary traffic, an incremental fill prime leaves the hierarchy
// bit-identical to the reference full prime — including L2 content and LRU
// clocks, which the replay must reproduce without walking sets × ways.
func TestPrimeFillIncrementalBitIdentical(t *testing.T) {
	for ci, cfg := range primeTestConfigs() {
		full, incr := NewHierarchy(cfg), NewHierarchy(cfg)
		// Establish the first primed state on both (first prime is always
		// full: a fresh hierarchy is all-dirty).
		full.PrimeL1D(false)
		incr.PrimeL1D(true)
		hierEqual(t, full, incr)
		for round := 0; round < 8; round++ {
			seed := int64(ci*100 + round)
			primeWorkload(full, rand.New(rand.NewSource(seed)), 120)
			primeWorkload(incr, rand.New(rand.NewSource(seed)), 120)
			full.PrimeL1D(false)
			incr.PrimeL1D(true)
			hierEqual(t, full, incr)
		}
	}
}

// TestPrimeInvalidateIncrementalBitIdentical is the same pin for the
// invalidate prime (CleanupSpec/SpecLFB campaigns).
func TestPrimeInvalidateIncrementalBitIdentical(t *testing.T) {
	for ci, cfg := range primeTestConfigs() {
		full, incr := NewHierarchy(cfg), NewHierarchy(cfg)
		full.PrimeInvalidate(false)
		incr.PrimeInvalidate(true)
		hierEqual(t, full, incr)
		for round := 0; round < 8; round++ {
			seed := int64(1000 + ci*100 + round)
			primeWorkload(full, rand.New(rand.NewSource(seed)), 120)
			primeWorkload(incr, rand.New(rand.NewSource(seed)), 120)
			full.PrimeInvalidate(false)
			incr.PrimeInvalidate(true)
			hierEqual(t, full, incr)
		}
	}
}

// TestPrimeModeSwitchFallsBackToFull: an incremental fill prime after an
// invalidate prime must not take the empty L1D base for the template —
// with no template yet it runs the full prime; after a Restore it restores
// every set — and either way the result matches the reference.
func TestPrimeModeSwitchFallsBackToFull(t *testing.T) {
	cfg := DefaultHierConfig()
	full, incr := NewHierarchy(cfg), NewHierarchy(cfg)
	full.PrimeInvalidate(false)
	incr.PrimeInvalidate(true)
	full.PrimeL1D(false)
	incr.PrimeL1D(true) // mode switch, no template yet: must fall back to full
	hierEqual(t, full, incr)

	st := incr.Save()
	primeWorkload(incr, rand.New(rand.NewSource(7)), 50)
	incr.Restore(st)
	primeWorkload(full, rand.New(rand.NewSource(9)), 50)
	primeWorkload(incr, rand.New(rand.NewSource(9)), 50)
	full.PrimeL1D(false)
	incr.PrimeL1D(true) // post-Restore: every set dirty, replay path
	hierEqual(t, full, incr)
}

// TestPrimeFillIncrementalFromBulkDirty pins the bulk-dirty fast path: the
// state Reset and Restore leave behind (every set dirty) takes the
// incremental replay — no simulated fill traffic — and still lands on the
// exact full-prime state. This is the once-per-program prime after a
// start's reset, which previously re-simulated sets × ways fills.
func TestPrimeFillIncrementalFromBulkDirty(t *testing.T) {
	for ci, cfg := range primeTestConfigs() {
		full, incr := NewHierarchy(cfg), NewHierarchy(cfg)
		full.PrimeL1D(false)
		incr.PrimeL1D(false) // capture templates on both
		seed := int64(5000 + ci)
		primeWorkload(full, rand.New(rand.NewSource(seed)), 120)
		primeWorkload(incr, rand.New(rand.NewSource(seed)), 120)

		// The per-program shape: Reset (what a start leaves), then the next
		// program's first prime.
		full.Reset()
		incr.Reset()
		incr.PrimeL1D(true)
		if got := incr.nextFillID; got != 0 {
			t.Fatalf("cfg %d: prime from a bulk-dirty state scheduled %d fills, want the replay path", ci, got)
		}
		full.PrimeL1D(false)
		hierEqual(t, full, incr)

		// The validation shape: Restore into a mid-campaign state.
		st := full.Save()
		primeWorkload(full, rand.New(rand.NewSource(seed+1)), 80)
		primeWorkload(incr, rand.New(rand.NewSource(seed+1)), 80)
		full.Restore(st)
		incr.Restore(st)
		full.PrimeL1D(false)
		incr.PrimeL1D(true)
		hierEqual(t, full, incr)
	}
}

// TestPrimeTemplateMatchesSimulatedPrime pins the template capture: the
// canonical L1D/TLB state the incremental path restores is byte-for-byte
// the state the simulated fill sequence produces.
func TestPrimeTemplateMatchesSimulatedPrime(t *testing.T) {
	for _, cfg := range primeTestConfigs() {
		h := NewHierarchy(cfg)
		h.PrimeL1D(false) // captures the template
		if h.tplBase == nil {
			t.Fatalf("full prime did not capture the template")
		}
		for i := range h.tplL1D {
			if h.tplL1D[i] != h.L1D.lines[i] {
				t.Fatalf("template L1D line %d differs from simulated prime", i)
			}
		}
		if h.tplL1DTick != h.L1D.useTick || h.tplTLBTick != h.DTLB.useTick {
			t.Errorf("template LRU clocks differ from simulated prime")
		}
		for i := range h.tplTLB {
			if h.tplTLB[i] != h.DTLB.entries[i] {
				t.Fatalf("template TLB entry %d differs from simulated prime", i)
			}
		}
	}
}

// TestDrainFillsTicksToLastReadyCycle: DrainFills applies everything
// pending without advancing past the last scheduled ready-cycle, and
// terminates in the presence of cancelled fills.
func TestDrainFillsTicksToLastReadyCycle(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.ScheduleFill(10, 0x1000, SinkCache, 1)
	id := h.ScheduleFill(30, 0x2000, SinkCache, 2)
	h.ScheduleFill(20, 0x3000, SinkCache, 3)
	h.CancelFill(id)
	h.DrainFills()
	if h.PendingFills() != 0 {
		t.Fatalf("%d fills still pending after drain", h.PendingFills())
	}
	if !h.L1D.Contains(0x1000) || !h.L1D.Contains(0x3000) {
		t.Errorf("drained fills did not install")
	}
	if h.L1D.Contains(0x2000) {
		t.Errorf("cancelled fill installed during drain")
	}
}

// TestPrimeIncrementalAllocFree pins the zero-allocation contract of the
// dirty tracking and the incremental prime: after warm-up, a
// traffic+prime cycle allocates nothing.
func TestPrimeIncrementalAllocFree(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.PrimeL1D(false)
	cycle := func() {
		primeWorkload(h, rand.New(rand.NewSource(42)), 60)
		h.PrimeL1D(true)
	}
	cycle() // size the replay scratch and tick buffers
	if allocs := testing.AllocsPerRun(20, func() {
		now := uint64(0)
		for i := 0; i < 40; i++ {
			now += 3
			h.AccessData(now, uint64((i*64)%(1<<12)), DataAccessOpts{UpdateLRU: true, Sink: SinkCache})
			h.TranslateData(now, uint64(i)<<12, true)
			h.Tick(now)
		}
		h.Tick(now + 500)
		h.MSHR.Reset()
		h.DropPendingFills()
		h.PrimeL1D(true)
	}); allocs > 0 {
		t.Errorf("incremental prime cycle allocates %v objects, want 0", allocs)
	}
}
