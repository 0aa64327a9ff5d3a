package executor

import (
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// rebuildFullWalk deep-copies a trace's content into a fresh UTrace with no
// section sums attached, so Hash() takes the full-walk reference path over
// exactly the same content.
func rebuildFullWalk(tr *UTrace) *UTrace {
	return &UTrace{
		Format:      tr.Format,
		L1D:         append([]uint64(nil), tr.L1D...),
		TLB:         append([]uint64(nil), tr.TLB...),
		L1I:         append([]uint64(nil), tr.L1I...),
		BPDigest:    tr.BPDigest,
		MemOrder:    append([]uarch.AccessRec(nil), tr.MemOrder...),
		BranchOrder: append([]uarch.BranchRec(nil), tr.BranchOrder...),
	}
}

// TestIncrementalDigestMatchesFullWalk runs randomized campaigns in every
// trace format and asserts, for every extracted trace, that the hash built
// from the incrementally maintained section sums equals the full-walk
// reference digest of the same content — and that a twin executor with
// fullDigest set produces the identical hash. Consecutive inputs of a
// program exercise the interesting dirty/clean mixes: the incremental prime
// leaves most sets clean between cases, so the per-set refresh covers
// partially-dirty bitmaps, and the prime-template restores re-seed digests
// that this test would catch going stale.
func TestIncrementalDigestMatchesFullWalk(t *testing.T) {
	formats := []TraceFormat{
		FormatL1DTLB, FormatL1DTLBL1I, FormatBPState, FormatMemOrder, FormatBranchOrder,
	}
	primes := []PrimeMode{PrimeFill, PrimeInvalidate, PrimeNone}
	for _, format := range formats {
		for _, prime := range primes {
			cfg := testConfig(StrategyOpt, prime)
			cfg.Format = format
			inc := New(cfg, nil)
			ref := New(cfg, nil)
			ref.fullDigest = true
			for seed := int64(1); seed <= 3; seed++ {
				gcfg := generator.DefaultConfig()
				gcfg.Seed = seed * 977
				g := generator.New(gcfg)
				prog, sb := g.Program(), g.Sandbox()
				if err := inc.LoadProgram(prog, sb); err != nil {
					t.Fatal(err)
				}
				if err := ref.LoadProgram(prog, sb); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 6; i++ {
					in := g.Input()
					trInc, err := inc.Run(in)
					if err != nil {
						t.Fatal(err)
					}
					trRef, err := ref.Run(in)
					if err != nil {
						t.Fatal(err)
					}
					if !trInc.Equal(trRef) {
						t.Fatalf("format %v prime %v seed %d input %d: trace content diverged between digest modes",
							format, prime, seed, i)
					}
					if walk := rebuildFullWalk(trInc); trInc.Hash() != walk.Hash() {
						t.Errorf("format %v prime %v seed %d input %d: incremental hash %#x != full-walk hash %#x",
							format, prime, seed, i, trInc.Hash(), walk.Hash())
					}
					if trInc.Hash() != trRef.Hash() {
						t.Errorf("format %v prime %v seed %d input %d: incremental hash %#x != fullDigest executor hash %#x",
							format, prime, seed, i, trInc.Hash(), trRef.Hash())
					}
					inc.ReleaseTrace(trInc)
					ref.ReleaseTrace(trRef)
				}
			}
		}
	}
}

// TestIncrementalDigestAllocs pins the incremental digest path as
// allocation-free in steady state: refreshing the per-set digests after a
// test case and hashing the extracted trace reuse the structures'
// preallocated bitmaps and the recycled trace's buffers.
func TestIncrementalDigestAllocs(t *testing.T) {
	cfg := testConfig(StrategyOpt, PrimeFill)
	cfg.Format = FormatL1DTLBL1I
	e := New(cfg, nil)
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 11
	g := generator.New(gcfg)
	prog, sb := g.Program(), g.Sandbox()
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	warm := g.Input()
	// Warm the executor (boot, template capture, trace freelist) before
	// measuring; the steady-state loop is what campaigns run millions of
	// times.
	for i := 0; i < 3; i++ {
		tr, err := e.Run(warm)
		if err != nil {
			t.Fatal(err)
		}
		e.ReleaseTrace(tr)
	}
	in := g.Input()
	allocs := testing.AllocsPerRun(50, func() {
		tr, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		e.ReleaseTrace(tr)
	})
	if allocs != 0 {
		t.Errorf("steady-state run+digest allocates %.1f objects per case, want 0", allocs)
	}
}
