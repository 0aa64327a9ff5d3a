package mem

import (
	"slices"
	"testing"
)

// deltaAddr maps a fuzz byte to a line in one of four L1D sets (0, 21, 42,
// 63): a prime conflict line, which the fill template may hold, or a
// sandbox line. Sixteen candidates per set over eight ways keep installs
// evicting and reinstalling template lines, so sets often return to their
// base content.
func deltaAddr(cfg CacheConfig, arg byte) uint64 {
	set := uint64(arg&3) * 21 % uint64(cfg.Sets)
	way := uint64(arg>>2) & 15
	region := PrimeBase
	if arg&0x40 != 0 {
		region = 0x200000
	}
	return region + (way*uint64(cfg.Sets)+set)*uint64(cfg.LineSize)
}

// deltaPoint is one recorded cache state: the trace section taken from it
// and the full snapshot it must expand to.
type deltaPoint struct {
	d    CacheDelta
	snap []uint64
}

// FuzzTraceDelta checks the µarch trace's cache sections against the full
// snapshot they replace. From a fill-primed, invalidate-primed, unprimed or
// restored hierarchy it applies the fuzz input's operations to the L1D and
// L1I (installs, LRU hits, UV1-style victim evictions, invalidations, the
// primes, resets, save and restore), recording the L1D, L1I and L2 sections
// at marked steps through one reused CacheDelta each, as the executor does
// (the L2, whose sets hold no canonical content, is walked in full).
// Every recorded section must expand to the cache's SnapshotInto, and any
// two sections of one cache must be Equal exactly when their snapshots are,
// over one base or across bases (a prime switch, or another hierarchy's
// template).
func FuzzTraceDelta(f *testing.F) {
	const rec = 0x80 // op flag: record the sections after this step
	// A touched template line: its set is dirty but holds its base content
	// (op 15 is a no-op, to record the untouched state first).
	f.Add(uint8(0), []byte{rec | 15, 0, rec | 0, 0, rec | 2, 0x04, 0, 0})
	// An install then invalidate in an empty set: dirty, back to empty.
	f.Add(uint8(1), []byte{rec | 0, 0, 0, 0x41, rec | 6, 0x41})
	// A fill prime, then an invalidate prime: empty deltas over two bases.
	f.Add(uint8(0), []byte{rec | 0, 0, rec | 9, 0})
	// Evict a template line and reinstall it; then the same via L1I.
	f.Add(uint8(0), []byte{rec | 0, 0, rec | 4, 0x40, rec | 0, 0x3c, rec | 0x10, 0x41, rec | 0x16, 0x41})
	// Restored, unprimed and reset starts.
	f.Add(uint8(3), []byte{rec | 2, 0x05, 0, 0x81, rec | 8, 0})
	f.Add(uint8(2), []byte{0, 0x44, rec | 0, 0x48, rec | 12, 0, rec | 8, 0})
	f.Fuzz(func(t *testing.T, start uint8, ops []byte) {
		cfg := DefaultHierConfig()
		h := NewHierarchy(cfg)
		switch start % 4 {
		case 0:
			h.PrimeL1D(true)
		case 1:
			h.PrimeInvalidate(true)
		case 3:
			h.PrimeL1D(true)
			h.L1D.Install(deltaAddr(cfg.L1D, 0x41))
			st := h.Save()
			h.PrimeL1D(true)
			h.Restore(st)
		}
		var st HierState
		h.SaveInto(&st)
		caches := [3]*Cache{h.L1D, h.L1I, h.L2}
		var reused [3]CacheDelta
		var hist [3][]deltaPoint
		record := func() {
			for k, c := range caches {
				c.DeltaInto(&reused[k])
				p := deltaPoint{d: reused[k].Clone(), snap: c.SnapshotInto(nil)}
				if got := p.d.AppendLines(nil); !slices.Equal(got, p.snap) {
					t.Fatalf("cache %d: delta expands to %#x, snapshot %#x", k, got, p.snap)
				}
				hist[k] = append(hist[k], p)
			}
		}
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			op, arg := ops[i], ops[i+1]
			c := caches[op>>4&1]
			addr := deltaAddr(cfg.L1D, arg)
			switch op & 0xf {
			case 0, 1:
				c.Install(addr)
			case 2, 3:
				c.Touch(addr)
			case 4:
				c.EvictVictim(addr)
			case 5, 6:
				c.Invalidate(addr)
			case 7:
				h.PrimeL1D(arg&1 == 0)
			case 8:
				h.PrimeInvalidate(arg&1 == 0)
			case 9:
				h.PrimeInvalidate(true)
			case 10:
				h.InvalidateL1I(arg&1 == 0)
			case 11:
				h.SaveInto(&st)
			case 12:
				h.Restore(&st)
			case 13:
				h.Reset()
			case 14:
				c.InvalidateDirty()
			}
			if op&rec != 0 {
				record()
			}
		}
		record()

		other := NewHierarchy(cfg)
		other.PrimeL1D(true)
		var fresh deltaPoint
		other.L1D.DeltaInto(&fresh.d)
		fresh.snap = other.L1D.SnapshotInto(nil)
		hist[0] = append(hist[0], fresh)

		for k := range hist {
			for i, a := range hist[k] {
				for j, b := range hist[k] {
					want := slices.Equal(a.snap, b.snap)
					if got := a.d.Equal(&b.d); got != want {
						t.Fatalf("cache %d, points %d and %d: delta Equal %v, snapshots equal %v\n%#x\n%#x",
							k, i, j, got, want, a.snap, b.snap)
					}
				}
			}
		}
	})
}

// TestCacheDeltaCloneIsSized: a cloned section owns a buffer sized to its
// content, not the recycled one's whole-cache capacity, shares no storage
// with it, and shares the immutable base.
func TestCacheDeltaCloneIsSized(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	var d CacheDelta
	for _, prime := range []func(){func() { h.PrimeL1D(true) }, func() { h.PrimeInvalidate(true) }} {
		prime()
		h.L1D.Install(0x200000)
		h.L1D.DeltaInto(&d)
		c := d.Clone()
		if len(c.buf) == 0 || cap(c.buf) > 2*len(c.buf) || &c.buf[0] == &d.buf[0] {
			t.Errorf("clone holds %d/%d (len/cap), want a content-sized copy of %d words", len(c.buf), cap(c.buf), len(d.buf))
		}
		if c.base != d.base || !c.Equal(&d) {
			t.Errorf("clone does not share the base or is not Equal")
		}
	}
}
