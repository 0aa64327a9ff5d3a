package generator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// The dense oracle: input generation and mutation exactly as they were when
// an input's memory was a []byte of Sandbox.Size() — every random byte drawn
// and written down, every candidate a full copy. It is the specification the
// paged, procedurally-backed representation must reproduce bit for bit: same
// bytes, same registers, same accept/reject decisions, same draw counts.

type denseInput struct {
	Regs [isa.NumRegs]uint64
	Mem  []byte
}

// image lifts a dense input into the form the leakage model runs on.
func (d *denseInput) image(sb isa.Sandbox) *isa.Input {
	in := isa.NewInput(sb)
	in.Regs = d.Regs
	if err := in.Mem.FillFrom(bytes.NewReader(d.Mem)); err != nil {
		panic(err)
	}
	return in
}

// denseRead is the bulk read the streams offered when inputs were dense:
// eight bytes per draw from the counter stream, math/rand's own Read (one
// counted draw) from the legacy one. Sandbox sizes are multiples of eight.
func denseRead(rng rngStream, p []byte) {
	switch s := rng.(type) {
	case *counterRand:
		for ; len(p) >= 8; p = p[8:] {
			binary.LittleEndian.PutUint64(p, s.Uint64())
		}
	case *legacyRand:
		s.n++
		s.r.Read(p)
	}
}

func denseGenerate(rng rngStream, sb isa.Sandbox) *denseInput {
	in := &denseInput{Mem: make([]byte, sb.Size())}
	for i := range in.Regs {
		in.Regs[i] = rng.Uint64() >> uint(rng.Intn(56))
	}
	denseRead(rng, in.Mem)
	return in
}

// denseMutate returns the mutant, whether one verified, and the scope it
// verified at.
func denseMutate(rng rngStream, mutateRegs bool, model *contract.Model, sb isa.Sandbox, base *denseInput, usage *contract.Usage, baseTrace contract.Trace) (*denseInput, bool, float64) {
	buf := make([]byte, len(base.Mem))
	for _, scope := range []float64{1.0, 0.5, 0.2, 0.05} {
		cand := &denseInput{Regs: base.Regs, Mem: append([]byte(nil), base.Mem...)}
		changed := false
		if scope == 1.0 {
			denseRead(rng, buf)
			copy(cand.Mem, buf)
			loaded := 0
			for off := range cand.Mem {
				if usage.Loaded(uint64(off)) {
					cand.Mem[off] = base.Mem[off]
					loaded++
				}
			}
			changed = loaded < len(cand.Mem)
		} else {
			n := int(float64(len(cand.Mem)) * scope)
			if n < 1 {
				n = 1
			}
			for k := 0; k < n; k++ {
				off := uint64(rng.Intn(len(cand.Mem)))
				if usage.Loaded(off) {
					continue
				}
				cand.Mem[off] = byte(rng.Intn(256))
				changed = true
			}
		}
		if mutateRegs {
			for r := 0; r < isa.NumRegs; r++ {
				if usage.RegLiveIn(isa.Reg(r)) {
					continue
				}
				if scope < 1.0 && rng.Float64() >= scope {
					continue
				}
				cand.Regs[r] = rng.Uint64() >> uint(rng.Intn(56))
				changed = true
			}
		}
		if !changed {
			continue
		}
		if model.CollectTrace(cand.image(sb)).Equal(baseTrace) {
			return cand, true, scope
		}
	}
	return nil, false, 0
}

func sameInput(t *testing.T, what string, got *isa.Input, want *denseInput) {
	t.Helper()
	if got.Regs != want.Regs {
		t.Fatalf("%s: registers differ from the dense oracle", what)
	}
	if mem := got.Mem.Dense(); !bytes.Equal(mem, want.Mem) {
		for off := range mem {
			if mem[off] != want.Mem[off] {
				t.Fatalf("%s: memory differs from the dense oracle, first at offset %#x: %#x, want %#x",
					what, off, mem[off], want.Mem[off])
			}
		}
	}
}

// TestDenseOracleEquivalence runs the generator and the mutator next to the
// dense oracle, each side on its own copy of the same streams, and demands
// byte-for-byte equal inputs, equal ok flags and equal draw counts — at
// every sandbox size, contract and register-mutation policy, through a slab
// and on the heap, and on the legacy stream.
func TestDenseOracleEquivalence(t *testing.T) {
	scopeHits := map[float64]int{}
	for _, pages := range []int{1, 2, 128} {
		programs := 0
		// The oracle is O(sandbox) per input by design; the large geometry
		// gets fewer inputs per program so the sweep stays affordable under
		// the race detector.
		bases, mutants := 2, 3
		if pages == 128 {
			bases, mutants = 1, 2
		}
		for _, c := range []contract.Contract{contract.CTSeq, contract.CTCond, contract.ArchSeq} {
			for _, mutateRegs := range []bool{false, true} {
				// The legacy stream rides along where it is cheap; its fill
				// materializes every page, so two pages cover it.
				for _, legacy := range []bool{false, true} {
					if legacy && pages != 2 {
						continue
					}
					name := fmt.Sprintf("%dp/%s/regs=%v/legacy=%v", pages, c.Name, mutateRegs, legacy)
					seed := int64(1000*pages + len(name))
					cfg := DefaultConfig()
					cfg.Pages, cfg.Seed, cfg.LegacyRand = pages, seed, legacy
					g, ref := New(cfg), New(cfg)
					mut := NewMutator(seed^0x5eed, mutateRegs, legacy)
					refRNG := newRNG(seed^0x5eed, legacy)
					sb := g.Sandbox()
					for p := 0; p < 34; p++ {
						prog := g.Program()
						ref.Program()
						programs++
						model := contract.NewModel(c, prog, sb)
						var slab *isa.Slab
						if p%2 == 0 {
							slab = isa.NewSlab(sb, bases*(1+mutants))
						}
						for b := 0; b < bases; b++ {
							what := fmt.Sprintf("%s program %d base %d", name, p, b)
							base := g.InputIn(slab)
							want := denseGenerate(ref.rng, sb)
							sameInput(t, what, base, want)
							tr, usage := model.Collect(base)
							for m := 0; m < mutants; m++ {
								what := fmt.Sprintf("%s mutant %d", what, m)
								got, ok := mut.MutateIn(slab, model, base, usage, tr)
								wantMut, wantOK, scope := denseMutate(refRNG, mutateRegs, model, sb, want, usage, tr)
								if ok != wantOK {
									t.Fatalf("%s: ok=%v, the dense oracle's %v", what, ok, wantOK)
								}
								if ok {
									sameInput(t, what, got, wantMut)
									if c.SpecBranches {
										scopeHits[scope]++
									}
								}
								if mut.Draws() != refRNG.Draws() {
									t.Fatalf("%s: mutator drew %d, the dense oracle %d", what, mut.Draws(), refRNG.Draws())
								}
							}
							sameInput(t, what+" after mutation", base, want)
						}
						if g.Draws() != ref.Draws() {
							t.Fatalf("%s program %d: generator drew %d, the dense oracle %d", name, p, g.Draws(), ref.Draws())
						}
					}
				}
			}
		}
		if programs < 200 {
			t.Errorf("%d pages: only %d programs checked, want >= 200", pages, programs)
		}
	}
	// The sparse scopes only run when CT-COND rejects a denser mutation; the
	// sweep must actually have exercised each of them (the view-plus-pokes
	// path), not just the whole-sandbox fill.
	for _, scope := range []float64{0.5, 0.2, 0.05} {
		if scopeHits[scope] == 0 {
			t.Errorf("no CT-COND mutant verified at scope %v: that path went unchecked (hits: %v)", scope, scopeHits)
		}
	}
	t.Logf("CT-COND mutants by accepting scope: %v", scopeHits)
}
