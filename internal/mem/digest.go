package mem

import "github.com/sith-lab/amulet-go/internal/isa"

// Mix64 is splitmix64's output finalizer (isa.Mix64: the generator's counter
// stream and the procedural input memory are defined by it). The per-set
// cache content digests below, coverage feature hashing in uarch (which
// re-exports it) and the fuzzer's work-unit seed derivation share it.
//
// Content digests fold a structure's addresses as a multiset sum of
// Mix64(addr): addition commutes, so the digest is a pure function of which
// lines are present, independent of walk order, and it decomposes per cache
// set — remove a set's partial sum, re-add the recomputed one — which is
// what makes incremental maintenance over the dirty-set bitmaps possible.
func Mix64(x uint64) uint64 { return isa.Mix64(x) }
