package mem

import (
	"math/rand"
	"testing"
)

// FuzzPrimeSequence drives twin hierarchies, one primed by the simulated
// reference and one incrementally, through the same traffic and the same
// sequence of fill, invalidate and L1I primes, with Reset, SaveInto and
// Restore mixed in. After every prime the twins must be bit-identical
// (hierEqual), and once the template exists an incremental fill prime must
// restore rather than simulate: it schedules no fill. Traffic stays below
// PrimeBase, as every sandbox does.
//
// Each op is two bytes: a kind and an argument.
//
//	0–2  traffic: arg seeds primeWorkload, arg%32+1 operations
//	3    fill prime
//	4    invalidate prime
//	5    L1I invalidate, then a fill prime when arg is odd
//	6    Reset
//	7    SaveInto when arg is even, else Restore of the last save
func FuzzPrimeSequence(f *testing.F) {
	// Fill, invalidate, fill: the L1D's clean sets are empty, not the
	// template, so the second fill prime must restore every set.
	f.Add(uint8(0), []byte{3, 0, 0, 1, 4, 0, 3, 0})
	f.Add(uint8(2), []byte{3, 0, 1, 7, 4, 0, 2, 9, 3, 0, 0, 3, 3, 0})
	// Invalidate before any template, then fill primes around traffic.
	f.Add(uint8(1), []byte{4, 0, 0, 5, 3, 0, 0, 6, 3, 0, 2, 8, 4, 0})
	// Reset and Restore starts, the shapes of a program start and a
	// validation replay.
	f.Add(uint8(0), []byte{3, 0, 0, 11, 6, 0, 3, 0, 7, 0, 1, 12, 3, 0, 0, 13, 7, 1, 3, 0})
	f.Add(uint8(2), []byte{4, 0, 7, 0, 0, 14, 4, 0, 1, 15, 7, 1, 4, 0, 6, 0, 4, 0})
	// The KV1 formats' prime: L1I invalidate, then a fill prime.
	f.Add(uint8(1), []byte{5, 1, 0, 21, 5, 1, 1, 22, 5, 0, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		cfgs := primeTestConfigs()
		cfg := cfgs[int(geom)%len(cfgs)]
		full, incr := NewHierarchy(cfg), NewHierarchy(cfg)
		var fullSt, incrSt HierState
		full.SaveInto(&fullSt)
		incr.SaveInto(&incrSt)
		fill := func() {
			t.Helper()
			full.PrimeL1D(false)
			restores, id := incr.tplBase != nil, incr.nextFillID
			incr.PrimeL1D(true)
			if restores && incr.nextFillID != id {
				t.Fatalf("incremental fill prime with a template scheduled %d fills", incr.nextFillID-id)
			}
			hierEqual(t, full, incr)
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 8 {
			case 0, 1, 2:
				n := int(arg%32) + 1
				primeWorkload(full, rand.New(rand.NewSource(int64(arg))), n)
				primeWorkload(incr, rand.New(rand.NewSource(int64(arg))), n)
			case 3:
				fill()
			case 4:
				full.PrimeInvalidate(false)
				incr.PrimeInvalidate(true)
				hierEqual(t, full, incr)
			case 5:
				full.InvalidateL1I(false)
				incr.InvalidateL1I(true)
				hierEqual(t, full, incr)
				if arg&1 != 0 {
					fill()
				}
			case 6:
				full.Reset()
				incr.Reset()
			case 7:
				if arg&1 == 0 {
					full.SaveInto(&fullSt)
					incr.SaveInto(&incrSt)
				} else {
					full.Restore(&fullSt)
					incr.Restore(&incrSt)
				}
			}
		}
	})
}
