// Package generator produces random test programs and inputs, mirroring the
// Revizor test generator that AMuLeT reuses: programs are generated,
// mutated and spliced by a pluggable ISA frontend (isa.Frontend — the toy
// register ISA by default, the WASM-subset stack machine behind -isa=wasm),
// with all memory accesses confined to a sandbox, plus random inputs and
// contract-preserving input mutation. Every random decision is drawn from a
// seeded stream, so campaigns are reproducible on any frontend.
//
// Inputs are built in O(bytes the test touches), not O(sandbox): the default
// stream is counter-based, so the random memory of an input is addressable
// and is recorded as an isa.Fill — a span of the stream — instead of being
// written down (see the memory model in isa/image.go). A base input advances
// the stream counter by Size()/8 and materializes nothing; a mutant is a
// fresh fill plus the few contract-visible bytes restored from its base, or
// a copy-on-write view of its base plus pokes. The legacy math/rand stream
// (Config.LegacyRand) has no addressable outputs, so its Fill method writes
// every page; that is the only place a dense image is ever produced.
package generator

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// Config tunes program generation.
type Config struct {
	Seed int64

	// LegacyRand draws from math/rand instead of the default counter-based
	// splitmix64 stream (rng.go). The streams produce different values, so
	// the switch re-pinned every seed-dependent golden; this knob keeps the
	// old stream reachable for A/B comparison against pre-switch results.
	LegacyRand bool

	MinInsts  int // minimum instructions per program
	MaxInsts  int // maximum instructions per program
	MaxBlocks int // maximum basic blocks (paper: 5)

	Pages int // sandbox pages (paper: 1..128)

	// Instruction-mix weights (need not sum to anything particular).
	WeightALU   int
	WeightLoad  int
	WeightStore int
	WeightCmp   int
	WeightCmov  int
	WeightFence int

	// ChainBias is the probability that a memory access uses the most
	// recently loaded register as its base — the "encode a loaded value in
	// an address" pattern every cache side channel needs.
	ChainBias float64
}

// DefaultConfig returns the paper-like generator configuration
// (~50-instruction programs, 5 basic blocks, 1-page sandbox).
func DefaultConfig() Config {
	return Config{
		MinInsts:    36,
		MaxInsts:    56,
		MaxBlocks:   5,
		Pages:       1,
		WeightALU:   30,
		WeightLoad:  22,
		WeightStore: 10,
		WeightCmp:   12,
		WeightCmov:  6,
		WeightFence: 1,
		ChainBias:   0.45,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.MinInsts < 4 || c.MaxInsts < c.MinInsts {
		return fmt.Errorf("generator: bad instruction bounds [%d,%d]", c.MinInsts, c.MaxInsts)
	}
	if c.MaxBlocks < 1 || c.MaxBlocks > 16 {
		return fmt.Errorf("generator: MaxBlocks must be in [1,16], got %d", c.MaxBlocks)
	}
	return isa.Sandbox{Pages: c.Pages}.Validate()
}

// Params resolves the config into the frontend-independent generation
// parameters handed to isa.Frontend hooks.
func (c Config) Params() isa.GenParams {
	return isa.GenParams{
		MinInsts:    c.MinInsts,
		MaxInsts:    c.MaxInsts,
		MaxBlocks:   c.MaxBlocks,
		Sandbox:     isa.Sandbox{Pages: c.Pages},
		WeightALU:   c.WeightALU,
		WeightLoad:  c.WeightLoad,
		WeightStore: c.WeightStore,
		WeightCmp:   c.WeightCmp,
		WeightCmov:  c.WeightCmov,
		WeightFence: c.WeightFence,
		ChainBias:   c.ChainBias,
	}
}

// Generator produces random programs and inputs from a seeded PRNG, so
// campaigns are reproducible. Program generation and mutation are delegated
// to an isa.Frontend (the toy register ISA unless NewFor selects another);
// input generation is frontend-independent — inputs are architectural
// register files plus sandbox memory either way.
type Generator struct {
	cfg    Config
	fe     isa.Frontend
	params isa.GenParams
	rng    rngStream
}

// New builds a generator for the toy frontend. It panics on invalid
// configuration.
func New(cfg Config) *Generator { return NewFor(cfg, isa.Toy) }

// NewFor builds a generator driving the given frontend. It panics on
// invalid configuration; a nil frontend selects the toy frontend.
func NewFor(cfg Config, fe isa.Frontend) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if fe == nil {
		fe = isa.Toy
	}
	return &Generator{cfg: cfg, fe: fe, params: cfg.Params(), rng: newRNG(cfg.Seed, cfg.LegacyRand)}
}

// Frontend returns the ISA frontend this generator drives.
func (g *Generator) Frontend() isa.Frontend { return g.fe }

// Sandbox returns the sandbox geometry programs are generated for.
func (g *Generator) Sandbox() isa.Sandbox { return isa.Sandbox{Pages: g.cfg.Pages} }

// Draws returns the generator stream's draw counter — how much of the
// seeded PRNG stream this generator has consumed. Campaign checkpoints
// record it per work unit as a determinism diagnostic (same unit, same
// count, or the unit did not replay the same work).
func (g *Generator) Draws() uint64 { return g.rng.Draws() }

// Source generates one random source program on the frontend.
func (g *Generator) Source() isa.SourceProgram { return g.fe.Generate(g.rng, g.params) }

// Program generates one random test program, lowered to µops. On the toy
// frontend the lowering is the identity, making this bit-identical to the
// pre-frontend generator.
func (g *Generator) Program() *isa.Program { return g.fe.Lower(g.Source()) }

// MutateSource derives a point-mutated variant of src on the frontend.
func (g *Generator) MutateSource(src isa.SourceProgram) isa.SourceProgram {
	return g.fe.Mutate(g.rng, g.params, src)
}

// SpliceSource crosses two source programs on the frontend.
func (g *Generator) SpliceSource(a, b isa.SourceProgram) isa.SourceProgram {
	return g.fe.Splice(g.rng, g.params, a, b)
}

// MutateProgram derives a mutant of a toy-frontend program (convenience
// wrapper over MutateSource for µop-level callers and tests).
func (g *Generator) MutateProgram(p *isa.Program) *isa.Program {
	return g.fe.Lower(g.MutateSource(p))
}

// Splice crosses two toy-frontend programs (convenience wrapper over
// SpliceSource for µop-level callers and tests).
func (g *Generator) Splice(a, b *isa.Program) *isa.Program {
	return g.fe.Lower(g.SpliceSource(a, b))
}

// Input generates a fully random input for the generator's sandbox.
func (g *Generator) Input() *isa.Input { return g.InputIn(nil) }

// InputIn is Input with the input carved from slab (nil: the heap). The
// memory is the next Size()/8 draws of the stream, recorded as the image's
// background rather than written out, so the cost does not depend on the
// sandbox size.
func (g *Generator) InputIn(slab *isa.Slab) *isa.Input {
	in := slab.NewInput(g.Sandbox())
	for i := range in.Regs {
		// Mixed magnitudes: small offsets and full-width values both occur.
		in.Regs[i] = g.rng.Uint64() >> uint(g.rng.Intn(56))
	}
	g.rng.Fill(&in.Mem)
	return in
}
