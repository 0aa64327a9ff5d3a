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
// bytes, same registers, same ok flags, same draw counts.

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

// denseMutate is the one-draw mutation on a dense copy of base: a random
// byte at every offset, the loaded ones restored from base, and under
// mutateRegs every register that is not live-in redrawn. It also asserts
// what the mutator no longer checks: the mutant's contract trace, collected
// by check (a model of its own, so usage stays intact), is base's.
func denseMutate(t *testing.T, what string, rng rngStream, mutateRegs bool, check *contract.Model, sb isa.Sandbox, base *denseInput, usage *contract.Usage, baseTrace contract.Trace) (*denseInput, bool) {
	t.Helper()
	free := false
	for r := 0; r < isa.NumRegs; r++ {
		free = free || mutateRegs && !usage.RegLiveIn(isa.Reg(r))
	}
	for off := range base.Mem {
		free = free || !usage.Loaded(uint64(off))
	}
	if !free {
		return nil, false
	}
	cand := &denseInput{Regs: base.Regs, Mem: make([]byte, len(base.Mem))}
	denseRead(rng, cand.Mem)
	for off := range cand.Mem {
		if usage.Loaded(uint64(off)) {
			cand.Mem[off] = base.Mem[off]
		}
	}
	if mutateRegs {
		for r := 0; r < isa.NumRegs; r++ {
			if !usage.RegLiveIn(isa.Reg(r)) {
				cand.Regs[r] = rng.Uint64() >> uint(rng.Intn(56))
			}
		}
	}
	if tr, _ := check.Collect(cand.image(sb)); !tr.Equal(baseTrace) {
		t.Fatalf("%s: the mutant changed the contract trace\nbase:   %s\nmutant: %s", what, baseTrace, tr)
	}
	return cand, true
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
// and on the heap, and on the legacy stream — and that every mutant keeps
// its base input's contract trace.
func TestDenseOracleEquivalence(t *testing.T) {
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
						check := contract.NewModel(c, prog, sb)
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
								got, ok := mut.MutateIn(slab, base, usage)
								wantMut, wantOK := denseMutate(t, what, refRNG, mutateRegs, check, sb, want, usage, tr)
								if ok != wantOK {
									t.Fatalf("%s: ok=%v, the dense oracle's %v", what, ok, wantOK)
								}
								if ok {
									sameInput(t, what, got, wantMut)
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
}
