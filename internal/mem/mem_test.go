package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	return NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
}

func TestCacheInstallAndTouch(t *testing.T) {
	c := testCache()
	if c.Touch(0x100) {
		t.Fatalf("empty cache hit")
	}
	if v, ev := c.Install(0x100); ev {
		t.Fatalf("install into empty set evicted %#x", v)
	}
	if !c.Touch(0x100) || !c.Touch(0x13f) {
		t.Errorf("same-line addresses must hit")
	}
	if c.Touch(0x140) {
		t.Errorf("different line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache() // 4 sets, 2 ways; set stride = 256 bytes
	// Three conflicting lines in set 0: 0x000, 0x100, 0x200.
	c.Install(0x000)
	c.Install(0x100)
	c.Touch(0x000) // make 0x100 the LRU
	v, ev := c.Install(0x200)
	if !ev || v != 0x100 {
		t.Errorf("evicted %#x (ev=%v), want 0x100", v, ev)
	}
	if c.Contains(0x100) {
		t.Errorf("evicted line still present")
	}
}

func TestCacheProbeVictimNoSideEffect(t *testing.T) {
	c := testCache()
	c.Install(0x000)
	c.Install(0x100)
	v, would := c.ProbeVictim(0x200)
	if !would || v != 0x000 {
		t.Errorf("probe = %#x,%v", v, would)
	}
	if !c.Contains(0x000) || !c.Contains(0x100) {
		t.Errorf("probe had side effects")
	}
	if _, would := c.ProbeVictim(0x100); would {
		t.Errorf("probe of a present line must not evict")
	}
}

func TestCacheEvictVictim(t *testing.T) {
	c := testCache()
	c.Install(0x000)
	c.Install(0x100)
	v, ev := c.EvictVictim(0x200)
	if !ev || v != 0x000 {
		t.Errorf("EvictVictim = %#x,%v", v, ev)
	}
	if c.Contains(0x000) {
		t.Errorf("victim still present")
	}
	if c.Contains(0x200) {
		t.Errorf("EvictVictim must not install")
	}
	// Nothing to evict when the set has a free way now.
	if _, ev := c.EvictVictim(0x300); ev {
		t.Errorf("eviction from a non-full set")
	}
}

func TestCacheSnapshotCanonical(t *testing.T) {
	// The snapshot is set-major with addresses sorted within each set —
	// a canonical form: same line multiset, same snapshot, regardless of
	// install order or way placement.
	c := testCache()
	c.Install(0x080) // set 2
	c.Install(0x000) // set 0
	c.Install(0x040) // set 1
	snap := c.Snapshot()
	if len(snap) != 3 || snap[0] != 0x000 || snap[1] != 0x040 || snap[2] != 0x080 {
		t.Errorf("snapshot not in canonical set-major order: %#x", snap)
	}

	// Same lines, different install (and thus way/LRU) order: identical
	// canonical snapshot.
	sets := c.Config().Sets * c.Config().LineSize
	d := testCache()
	for _, a := range []uint64{uint64(2 * sets), 0x040, 0x000} {
		d.Install(a)
	}
	e := testCache()
	for _, a := range []uint64{0x000, 0x040, uint64(2 * sets)} {
		e.Install(a)
	}
	ds, es := d.Snapshot(), e.Snapshot()
	if len(ds) != len(es) {
		t.Fatalf("canonical snapshots differ in size: %#x vs %#x", ds, es)
	}
	for i := range ds {
		if ds[i] != es[i] {
			t.Errorf("canonical snapshots differ: %#x vs %#x", ds, es)
		}
	}
	// Within each set the addresses are sorted (set 0 holds both 0x000 and
	// 2*sets, which collide there).
	if ds[0] != 0 || ds[1] != uint64(2*sets) || ds[2] != 0x040 {
		t.Errorf("per-set runs not sorted: %#x", ds)
	}
}

func TestCacheInvalidateDirtyMatchesInvalidateAll(t *testing.T) {
	// Starting from the same canonical empty state, an InvalidateDirty
	// after arbitrary traffic must be bit-identical to an InvalidateAll.
	a, b := testCache(), testCache()
	a.InvalidateAll()
	a.rebase(&a.empty)
	b.InvalidateAll()
	b.rebase(&b.empty)
	traffic := func(c *Cache) {
		c.Install(0x100)
		c.Install(0x200)
		c.Touch(0x100)
		c.EvictVictim(0x300)
		c.Invalidate(0x200)
	}
	traffic(a)
	traffic(b)
	a.InvalidateDirty()
	b.InvalidateAll()
	if a.useTick != b.useTick {
		t.Errorf("useTick %d != %d", a.useTick, b.useTick)
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			t.Errorf("line %d differs: %+v vs %+v", i, a.lines[i], b.lines[i])
		}
	}
	if a.ValidCount() != 0 {
		t.Errorf("InvalidateDirty left %d valid lines", a.ValidCount())
	}
}

func TestCacheSaveRestore(t *testing.T) {
	c := testCache()
	c.Install(0x100)
	st := c.Save()
	c.Install(0x200)
	c.Install(0x300)
	c.Restore(st)
	if !c.Contains(0x100) || c.Contains(0x200) || c.Contains(0x300) {
		t.Errorf("restore wrong: %#x", c.Snapshot())
	}
}

// TestCacheInvariantsProperty drives caches of several geometries through
// randomized mixes of every state-changing operation — installs, LRU hits,
// eviction without install, targeted, bulk and dirty-set invalidation,
// save/restore — snapshotting at random points into one reused buffer. Every
// snapshot must be in canonical form (set-major, strictly sorted within each
// set, so no line appears twice), hold exactly the resident lines, and have
// ValidCount entries: the properties trace comparison relies on (same line
// multiset, same snapshot).
func TestCacheInvariantsProperty(t *testing.T) {
	geoms := []CacheConfig{
		{Sets: 8, Ways: 4, LineSize: 64},
		{Sets: 64, Ways: 8, LineSize: 64},
		{Sets: 16, Ways: 3, LineSize: 32}, // non-power-of-two ways
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geom := geoms[rng.Intn(len(geoms))]
		c := NewCache(geom)
		span := 4 * geom.SizeBytes() // ~4x capacity: plenty of conflicts
		var cp CacheState
		saved := false
		var snap []uint64
		for step := 0; step < 600; step++ {
			addr := uint64(rng.Intn(span))
			switch rng.Intn(16) {
			case 0, 1:
				c.Touch(addr)
			case 2:
				c.Invalidate(addr)
			case 3:
				c.EvictVictim(addr)
			case 4:
				c.InvalidateDirty()
			case 5:
				if rng.Intn(8) == 0 {
					c.InvalidateAll()
				}
			case 6:
				if saved && rng.Intn(4) == 0 {
					c.Restore(&cp)
				} else {
					c.SaveInto(&cp)
					saved = true
				}
			default:
				c.Install(addr)
			}
			if rng.Intn(4) != 0 {
				continue
			}
			snap = c.SnapshotInto(snap[:0])
			if len(snap) != c.ValidCount() {
				t.Logf("seed %d step %d: snapshot has %d lines, ValidCount %d", seed, step, len(snap), c.ValidCount())
				return false
			}
			lastSet, lastAddr := -1, uint64(0)
			for _, la := range snap {
				set := c.SetIndex(la)
				if la%uint64(geom.LineSize) != 0 || !c.Contains(la) ||
					set < lastSet || (set == lastSet && la <= lastAddr) {
					t.Logf("seed %d step %d: snapshot %#x not canonical at %#x", seed, step, snap, la)
					return false
				}
				lastSet, lastAddr = set, la
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotFreshBufferAllocs pins the cost of snapshotting a full cache
// into a fresh buffer at one allocation: the buffer is grown once to the
// cache's capacity instead of doubling its way there.
func TestSnapshotFreshBufferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the -race runtime allocates on its own")
	}
	c := NewCache(CacheConfig{Sets: 64, Ways: 8, LineSize: 64})
	for a := uint64(0); a < 64*8*64; a += 64 {
		c.Install(a)
	}
	var snap []uint64
	if allocs := testing.AllocsPerRun(20, func() { snap = c.SnapshotInto(nil) }); allocs != 1 {
		t.Errorf("SnapshotInto(nil) of a full cache allocates %v times, want 1", allocs)
	}
	if len(snap) != 64*8 {
		t.Errorf("snapshot of a full cache has %d lines, want %d", len(snap), 64*8)
	}
}

func TestMSHRAllocAndCoalesce(t *testing.T) {
	m := NewMSHRFile(2)
	if m.FreeCount(0) != 2 {
		t.Fatalf("fresh file not free")
	}
	m.Alloc(0, 10, 0x100)
	if until, ok := m.Lookup(5, 0x100); !ok || until != 10 {
		t.Errorf("Lookup = %d,%v", until, ok)
	}
	if _, ok := m.Lookup(10, 0x100); ok {
		t.Errorf("expired entry still found")
	}
	m.Alloc(0, 20, 0x200)
	if m.FreeCount(5) != 0 {
		t.Errorf("FreeCount(5) = %d", m.FreeCount(5))
	}
	if got := m.EarliestFree(5); got != 10 {
		t.Errorf("EarliestFree = %d", got)
	}
	if got := m.EarliestFree(15); got != 15 {
		t.Errorf("EarliestFree(15) = %d", got)
	}
	busy := m.Busy(5)
	if len(busy) != 2 || busy[0] != 0x100 {
		t.Errorf("Busy = %#x", busy)
	}
}

func TestMSHRAllocPanicsWhenFull(t *testing.T) {
	m := NewMSHRFile(1)
	m.Alloc(0, 10, 0x100)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	m.Alloc(5, 15, 0x200)
}

func TestTLBLRU(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Install(1)
	tlb.Install(2)
	tlb.Touch(1) // 2 becomes LRU
	v, ev := tlb.Install(3)
	if !ev || v != 2 {
		t.Errorf("TLB evicted %d, want 2", v)
	}
	snap := tlb.Snapshot()
	if len(snap) != 2 || snap[0] != 1 || snap[1] != 3 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestTLBSaveRestore(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Install(7)
	st := tlb.Save()
	tlb.Install(9)
	tlb.Restore(st)
	if tlb.Contains(9) || !tlb.Contains(7) {
		t.Errorf("restore wrong: %v", tlb.Snapshot())
	}
}

func TestLFBAllocReleaseDrop(t *testing.T) {
	l := NewLFB(2)
	if !l.Alloc(0x100, 1) || !l.Alloc(0x200, 2) {
		t.Fatalf("alloc failed")
	}
	if l.Alloc(0x300, 3) {
		t.Errorf("alloc beyond capacity succeeded")
	}
	if !l.Alloc(0x100, 9) {
		t.Errorf("coalescing alloc of staged line failed")
	}
	if !l.Release(0x100) {
		t.Errorf("release failed")
	}
	if l.Contains(0x100) {
		t.Errorf("released line still staged")
	}
	l.DropOwner(2)
	if l.Contains(0x200) {
		t.Errorf("DropOwner left the line")
	}
	if l.FreeCount() != 2 {
		t.Errorf("FreeCount = %d", l.FreeCount())
	}
}
