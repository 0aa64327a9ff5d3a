package generator

import (
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Mutator produces contract-preserving input mutants: copies of an input
// that randomize only state the contract trace cannot observe, so that
// C(p,i) = C(p,i') holds by construction and the pair becomes a relational
// test case. The randomized state is the "secret" whose micro-architectural
// visibility the fuzzer then checks.
type Mutator struct {
	rng rngStream

	// MutateRegs also randomizes registers that are dead on the
	// architectural path. Register-borne secrets are what single-load
	// Spectre gadgets leak (the SpecLFB UV6 pattern); campaigns against
	// value-exposing contracts such as ARCH-SEQ leave this off because the
	// contract observes the register file.
	MutateRegs bool
}

// NewMutator builds a mutator with its own PRNG stream; legacy selects the
// math/rand stream (Config.LegacyRand semantics).
func NewMutator(seed int64, mutateRegs, legacy bool) *Mutator {
	return &Mutator{rng: newRNG(seed, legacy), MutateRegs: mutateRegs}
}

// Reseed rewinds the mutator in place to exactly the state NewMutator
// builds for seed with the same stream kind (see Generator.Reseed).
func (m *Mutator) Reseed(seed int64) { m.rng.reseed(seed) }

// Draws returns the mutation stream's draw counter (see Generator.Draws).
func (m *Mutator) Draws() uint64 { return m.rng.Draws() }

// Mutate derives a contract-preserving mutant of base. usage and baseTrace
// must come from model.Collect(base). The mutant is verified against the
// model; ok is false if no verified mutant could be produced (the mutation
// accidentally influenced the trace, e.g. through a speculatively observed
// path under CT-COND).
func (m *Mutator) Mutate(model *contract.Model, base *isa.Input, usage *contract.Usage, baseTrace contract.Trace) (mutant *isa.Input, ok bool) {
	return m.MutateIn(nil, model, base, usage, baseTrace)
}

// MutateIn is Mutate with the mutant carved from slab (nil: the heap).
func (m *Mutator) MutateIn(slab *isa.Slab, model *contract.Model, base *isa.Input, usage *contract.Usage, baseTrace contract.Trace) (mutant *isa.Input, ok bool) {
	// Later attempts shrink the mutation scope: under contracts that
	// observe speculative paths (CT-COND) a full-scope mutation often
	// touches a contract-visible byte and gets rejected, while a sparser
	// one can still slip a secret into unobserved state.
	scopes := []float64{1.0, 0.5, 0.2, 0.05}
	sb := base.Mem.Sandbox()
	size := int(sb.Size())
	// One candidate serves every scope: rebuilding its memory hands the
	// pages the rejected attempt materialized to the next one.
	cand := slab.NewInput(sb)
	for _, scope := range scopes {
		cand.Regs = base.Regs
		changed := false
		if scope == 1.0 {
			// Fast path: a fresh random background for the whole sandbox,
			// then the contract-visible bytes restored from the base input —
			// which materializes only the words those bytes live in.
			m.rng.Fill(&cand.Mem)
			usage.CopyLoaded(&cand.Mem, &base.Mem)
			changed = usage.LoadedCount() < size
		} else {
			cand.Mem.ViewOf(&base.Mem)
			n := int(float64(size) * scope)
			if n < 1 {
				n = 1
			}
			for k := 0; k < n; k++ {
				off := uint64(m.rng.Intn(size))
				if usage.Loaded(off) {
					continue
				}
				cand.Mem.SetByte(off, byte(m.rng.Intn(256)))
				changed = true
			}
		}
		if m.MutateRegs {
			for r := 0; r < isa.NumRegs; r++ {
				if usage.RegLiveIn(isa.Reg(r)) {
					continue
				}
				if scope < 1.0 && m.rng.Float64() >= scope {
					continue
				}
				cand.Regs[r] = m.rng.Uint64() >> uint(m.rng.Intn(56))
				changed = true
			}
		}
		if !changed {
			continue
		}
		// CollectTrace skips usage tracking (not needed to verify a mutant)
		// and leaves the caller's base usage untouched; the returned trace
		// is the model's scratch buffer, compared and dropped right here.
		if model.CollectTrace(cand).Equal(baseTrace) {
			return cand, true
		}
	}
	return nil, false
}
