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

	// MutateRegs also randomizes registers that are not live-in on any
	// explored path. Register-borne secrets are what single-load Spectre
	// gadgets leak (the SpecLFB UV6 pattern). Under a contract that observes
	// the register file, such as ARCH-SEQ, every register is live-in, so the
	// setting makes no difference there.
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

// Mutate is MutateIn on the heap. usage must come from model.Collect(base);
// model and baseTrace are unused — the mutant needs no check — and stay in
// the signature only because bench/replica.go compiles against it.
func (m *Mutator) Mutate(model *contract.Model, base *isa.Input, usage *contract.Usage, baseTrace contract.Trace) (mutant *isa.Input, ok bool) {
	return m.MutateIn(nil, base, usage)
}

// MutateIn derives a contract-preserving mutant of base, carved from slab
// (nil: the heap), in one draw: a random background for the whole sandbox,
// the bytes usage marks as loaded restored from base, and — under
// MutateRegs — every register that is not live-in redrawn. usage must come
// from the model's Collect(base); since it covers every path the contract
// explores, the mutant's contract trace equals base's. ok is false only
// when nothing is free to vary, and then nothing is drawn.
func (m *Mutator) MutateIn(slab *isa.Slab, base *isa.Input, usage *contract.Usage) (mutant *isa.Input, ok bool) {
	sb := base.Mem.Sandbox()
	freeRegs := m.MutateRegs && usage.LiveInRegs != 1<<isa.NumRegs-1
	if usage.LoadedCount() == int(sb.Size()) && !freeRegs {
		return nil, false
	}
	mutant = slab.NewInput(sb)
	mutant.Regs = base.Regs
	// The restore materializes only the words the loaded bytes live in.
	m.rng.Fill(&mutant.Mem)
	usage.CopyLoaded(&mutant.Mem, &base.Mem)
	if m.MutateRegs {
		for r := 0; r < isa.NumRegs; r++ {
			if !usage.RegLiveIn(isa.Reg(r)) {
				mutant.Regs[r] = m.rng.Uint64() >> uint(m.rng.Intn(56))
			}
		}
	}
	return mutant, true
}
