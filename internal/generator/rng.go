package generator

import (
	"math/bits"
	"math/rand"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// rngStream is the PRNG surface generation and mutation draw from — the
// isa.RNG interface the frontend hooks consume, plus the draw counter the
// checkpoint diagnostics record and the whole-sandbox fill inputs are built
// from. Two implementations exist: counterRand
// (the default) and legacyRand (math/rand behind Config.LegacyRand /
// NewMutator's legacy flag, kept for A/B comparison against the pre-switch
// golden fingerprints).
//
// The switch is a determinism break by design: every draw changes value, so
// the campaign fingerprints pinned by TestViolationSetDeterminism were
// re-recorded in the same change (the old values stay in that test as
// comments, reachable through the legacy knob).
type rngStream interface {
	isa.RNG
	// Draws returns how many draws the stream has served — the "PRNG
	// counter" campaign checkpoints record per work unit. For counterRand
	// it is exactly the splitmix counter position, so two runs of the same
	// unit that report the same count consumed the identical stream prefix.
	Draws() uint64
	// Fill gives im Size() random bytes, eight per draw in address order —
	// what reading the stream into a buffer of that size would produce. An addressable stream records
	// the span as the image's background and writes nothing; one that is not
	// materializes every page here, so no consumer of the image has to know
	// which stream built it.
	Fill(im *isa.Image)
}

// counterRand is a counter-based splitmix64 stream: output n is
// isa.StreamWord(base, n), a pure function of (seed, n). Compared to
// math/rand's lagged-Fibonacci source it needs no 607-word state to seed —
// campaigns build a fresh stream per work unit, and rand.(*rngSource).Seed
// showed up in campaign profiles right next to the draw costs — and each
// draw is a handful of arithmetic ops with no table walk.
type counterRand struct {
	base uint64
	n    uint64
}

func newCounterRand(seed int64) *counterRand {
	// Finalize the seed once so adjacent seeds (campaigns use seed, seed+1,
	// ...) start from decorrelated bases.
	return &counterRand{base: isa.Mix64(uint64(seed))}
}

// Uint64 returns the next 64 uniform bits.
func (c *counterRand) Uint64() uint64 {
	c.n++
	return isa.StreamWord(c.base, c.n)
}

// Intn returns a uniform int in [0, n) via Lemire's multiply-shift range
// reduction. The bias against a 64-bit draw is below 2^-49 for every n the
// generator uses — invisible next to the fuzzer's own sampling noise — and
// deterministic, which is all reproducibility needs.
func (c *counterRand) Intn(n int) int {
	if n <= 0 {
		panic("generator: Intn with non-positive bound")
	}
	hi, _ := bits.Mul64(c.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniform float in [0, 1) with 53 random bits.
func (c *counterRand) Float64() float64 {
	return float64(c.Uint64()>>11) / (1 << 53)
}

// Fill implements rngStream: outputs are addressable, so the sandbox's worth
// of draws is skipped over and named, not generated.
func (c *counterRand) Fill(im *isa.Image) {
	im.Reset(isa.StreamFill(c.base, c.n))
	c.n += im.Sandbox().Size() / 8
}

// Perm returns a random permutation of [0, n) (inside-out Fisher–Yates).
func (c *counterRand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := c.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Draws implements rngStream: the counter position itself.
func (c *counterRand) Draws() uint64 { return c.n }

// legacyRand adapts *rand.Rand to rngStream. Unlike
// counterRand there is no natural counter in the source, so each rngStream
// call counts as one draw; the absolute value differs from counterRand's
// but is equally deterministic, which is all the checkpoint diagnostic
// needs.
type legacyRand struct {
	r *rand.Rand
	n uint64
}

func newLegacyRand(seed int64) *legacyRand {
	return &legacyRand{r: rand.New(rand.NewSource(seed))}
}

// Intn implements rngStream.
func (l *legacyRand) Intn(n int) int { l.n++; return l.r.Intn(n) }

// Uint64 implements rngStream.
func (l *legacyRand) Uint64() uint64 { l.n++; return l.r.Uint64() }

// Float64 implements rngStream.
func (l *legacyRand) Float64() float64 { l.n++; return l.r.Float64() }

// Fill implements rngStream. math/rand's outputs exist only in sequence, so
// the image is written out in full — the one dense input representation
// left, confined to this method. (*rand.Rand).Read cannot fail.
func (l *legacyRand) Fill(im *isa.Image) { l.n++; _ = im.FillFrom(l.r) }

// Perm implements rngStream.
func (l *legacyRand) Perm(n int) []int { l.n++; return l.r.Perm(n) }

// Draws implements rngStream.
func (l *legacyRand) Draws() uint64 { return l.n }

// newRNG picks the stream implementation.
func newRNG(seed int64, legacy bool) rngStream {
	if legacy {
		return newLegacyRand(seed)
	}
	return newCounterRand(seed)
}
