package uarch

import (
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/mem"
)

// Coverage is the speculation-coverage signal: a fixed-size feature bitmap
// collected while a core simulates test cases. Each recorded event —
// a pipeline squash, a load issuing at some speculation-window depth, a
// defense hook restricting an access, a cache/TLB/LFB transition edge — is
// hashed into one bit. Two programs that exercise different speculative
// behaviour light up different bits, which is what the corpus generation
// strategy uses to decide which programs are worth mutating further.
//
// Collection is opt-in per core (SetCoverage); with no bitmap attached the
// instrumentation is a single nil check per event, so campaigns that do not
// use coverage (the paper's table reproductions) pay effectively nothing.
//
// The bitmap is deliberately small (CoverageBits) and hash-indexed like a
// fuzzer's edge map: collisions lose a little signal but keep merging and
// novelty checks O(words) regardless of how long a campaign runs.
type Coverage struct {
	bits [coverageWords]uint64
}

// CoverageBits is the size of the coverage bitmap.
const CoverageBits = 1 << 13 // 8192 features

const coverageWords = CoverageBits / 64

// covKind domains keep the feature classes from aliasing each other.
type covKind uint64

const (
	covSquash    covKind = iota + 1 // pipeline squash (branch or memory order)
	covSpecDepth                    // load issued under N unresolved branches
	covDefense                      // defense hook restricted an access
	covMemEdge                      // data-access outcome transition edge
	covTLB                          // D-TLB hit/miss edge
	covLFB                          // fill staged in the line-fill buffer
)

// Defense-hook feature identifiers (the a operand of covDefense features).
const (
	hookLoadDelay     uint64 = iota + 1 // LoadAction.Delay (STT block, SpecLFB stall)
	hookLoadSink                        // fill diverted from the cache (LFB/none)
	hookLoadNoMSHR                      // MSHR bypass (GhostMinion side path)
	hookLoadEvict                       // EvictOnMissFullSet (InvisiSpec UV1 path)
	hookLoadNoLRU                       // replacement state frozen on hits
	hookStoreDelay                      // StoreAction.Delay
	hookStorePrefetch                   // write-allocate at execute (CleanupSpec)
	hookStoreSpecTLB                    // speculative store installing a TLB entry (KV3 path)
	hookSquashDelay                     // OnSquash returned extra redirect cycles
)

// Mix64 is splitmix64's output finalizer (a bijective avalanche). Coverage
// feature hashing and the fuzzer's work-unit seed derivation share it. The
// definition lives in mem (whose content digests fold the same finalizer);
// this re-export keeps the historical uarch.Mix64 call sites working.
func Mix64(x uint64) uint64 { return mem.Mix64(x) }

// covMix hashes a (kind, a, b) feature into a bitmap index (splitmix64
// finalizer over the packed triple).
func covMix(kind covKind, a, b uint64) uint64 {
	x := uint64(kind)*0x9E3779B97F4A7C15 + a*0xBF58476D1CE4E5B9 + b
	return Mix64(x) % CoverageBits
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{} }

// set marks one feature.
func (c *Coverage) set(idx uint64) { c.bits[idx/64] |= 1 << (idx % 64) }

// Count returns the number of distinct features observed.
func (c *Coverage) Count() int {
	n := 0
	for _, w := range c.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no feature was observed.
func (c *Coverage) Empty() bool {
	for _, w := range c.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Merge ors other into c and returns how many of other's features were new
// to c. The corpus strategy admits a program when its coverage contributes
// at least one new feature to the campaign-global map.
func (c *Coverage) Merge(other *Coverage) (newBits int) {
	if other == nil {
		return 0
	}
	for i, w := range other.bits {
		newBits += bits.OnesCount64(w &^ c.bits[i])
		c.bits[i] |= w
	}
	return newBits
}

// NewBits returns how many of other's features c does not have, without
// modifying c.
func (c *Coverage) NewBits(other *Coverage) int {
	if other == nil {
		return 0
	}
	n := 0
	for i, w := range other.bits {
		n += bits.OnesCount64(w &^ c.bits[i])
	}
	return n
}

// Clone returns a deep copy.
func (c *Coverage) Clone() *Coverage {
	d := &Coverage{}
	d.bits = c.bits
	return d
}

// Reset clears the map.
func (c *Coverage) Reset() { c.bits = [coverageWords]uint64{} }

// Words copies the bitmap out as raw words (checkpoint serialization).
func (c *Coverage) Words() []uint64 {
	w := make([]uint64, coverageWords)
	copy(w, c.bits[:])
	return w
}

// LoadWords overwrites the bitmap from raw words (checkpoint restore).
// Shorter slices zero the tail; longer ones are truncated — a checkpoint
// from a build with a different CoverageBits is rejected upstream by the
// config fingerprint, so this is purely defensive.
func (c *Coverage) LoadWords(words []uint64) {
	c.bits = [coverageWords]uint64{}
	copy(c.bits[:], words)
}

// Digest returns an order-independent 64-bit summary of the bitmap, usable
// as a cheap equality probe in tests and reports.
func (c *Coverage) Digest() uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, w := range c.bits {
		h ^= w
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return h
}

// --- core-side recording -------------------------------------------------

// SetCoverage attaches (or, with nil, detaches) a coverage map. Events are
// recorded into the attached map as the core simulates; the caller owns the
// map and decides when to read or reset it.
func (c *Core) SetCoverage(cov *Coverage) { c.cov = cov }

// CoverageMap returns the attached coverage map (nil when disabled).
func (c *Core) CoverageMap() *Coverage { return c.cov }

// cover records one feature when coverage is enabled. The nil check is the
// entire disabled-path cost.
func (c *Core) cover(kind covKind, a, b uint64) {
	if c.cov == nil {
		return
	}
	c.cov.set(covMix(kind, a, b))
}

// depthBucket compresses a speculation-window depth (the number of
// unresolved branches a load sits under) into a small number of buckets so
// deep windows are distinguishable without exploding the feature space.
func depthBucket(depth int) uint64 {
	switch {
	case depth <= 3:
		return uint64(depth)
	case depth <= 7:
		return 4
	default:
		return 5
	}
}

// specAtIssue reports whether in issues under a branch shadow, recording
// the speculation-depth feature when coverage is on. One ROB walk serves
// both: with coverage enabled the full depth is counted (UnderShadow's
// early-out is the depth > 0 special case), so the simulator's hottest
// loop never scans the ROB twice per issue attempt.
func (c *Core) specAtIssue(in *DynInst, kind covKind, a uint64) bool {
	if c.cov == nil {
		return c.UnderShadow(in)
	}
	depth := c.ShadowDepth(in)
	c.cover(kind, a, depthBucket(depth))
	return depth > 0
}

// ShadowDepth returns the number of older unresolved conditional branches
// for in — the depth of the speculation window it executes under.
func (c *Core) ShadowDepth(in *DynInst) int {
	depth := 0
	for _, older := range c.rob {
		if older.Seq >= in.Seq {
			break
		}
		if older.IsBranch() && older.State != StDone && older.State != StCommitted {
			depth++
		}
	}
	return depth
}

// memClass classifies a data-access outcome for transition-edge coverage.
func memClass(l1Hit, l2Hit bool) uint64 {
	switch {
	case l1Hit:
		return 0
	case l2Hit:
		return 1
	default:
		return 2
	}
}
