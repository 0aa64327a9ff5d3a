package generator

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
)

func TestGeneratedProgramsValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	g := New(cfg)
	for i := 0; i < 200; i++ {
		p := g.Program()
		if err := p.Validate(); err != nil {
			t.Fatalf("program %d invalid: %v\n%s", i, err, p)
		}
		if p.Len() < cfg.MinInsts-cfg.MaxBlocks || p.Len() > cfg.MaxInsts+cfg.MaxBlocks {
			t.Errorf("program %d length %d outside bounds", i, p.Len())
		}
	}
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 2
	g := New(cfg)
	sb := g.Sandbox()
	for i := 0; i < 100; i++ {
		p := g.Program()
		in := g.Input()
		md := contract.NewModel(contract.CTCond, p, sb)
		// Collect panics or hits MaxSteps if the program loops; the DAG
		// property makes both impossible.
		tr, usage := md.Collect(in)
		if len(tr) == 0 {
			t.Errorf("program %d produced an empty contract trace", i)
		}
		if usage == nil {
			t.Errorf("program %d produced no usage", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	g1, g2 := New(cfg), New(cfg)
	for i := 0; i < 20; i++ {
		p1, p2 := g1.Program(), g2.Program()
		if p1.String() != p2.String() {
			t.Fatalf("programs diverge at %d", i)
		}
		i1, i2 := g1.Input(), g2.Input()
		if i1.Regs != i2.Regs {
			t.Fatalf("inputs diverge at %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	a.Seed, b.Seed = 1, 2
	if New(a).Program().String() == New(b).Program().String() {
		t.Errorf("different seeds produced identical first programs")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Pages = 3
	if err := bad.Validate(); err == nil {
		t.Errorf("pages=3 accepted")
	}
	bad = DefaultConfig()
	bad.MinInsts = 100
	bad.MaxInsts = 50
	if err := bad.Validate(); err == nil {
		t.Errorf("inverted bounds accepted")
	}
	bad = DefaultConfig()
	bad.MaxBlocks = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero blocks accepted")
	}
}

// TestConfigValidateBoundaries pins the exact edges of the accepted range:
// the smallest and largest legal configurations pass, one step beyond each
// edge fails.
func TestConfigValidateBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"min-insts-floor", func(c *Config) { c.MinInsts, c.MaxInsts = 4, 4 }, true},
		{"min-insts-below-floor", func(c *Config) { c.MinInsts, c.MaxInsts = 3, 10 }, false},
		{"equal-bounds", func(c *Config) { c.MinInsts, c.MaxInsts = 20, 20 }, true},
		{"inverted-by-one", func(c *Config) { c.MinInsts, c.MaxInsts = 21, 20 }, false},
		{"max-blocks-ceiling", func(c *Config) { c.MaxBlocks = 16 }, true},
		{"max-blocks-over", func(c *Config) { c.MaxBlocks = 17 }, false},
		{"negative-blocks", func(c *Config) { c.MaxBlocks = -1 }, false},
		{"pages-zero", func(c *Config) { c.Pages = 0 }, false},
		{"pages-negative", func(c *Config) { c.Pages = -4 }, false},
		{"pages-max", func(c *Config) { c.Pages = 128 }, true},
		{"negative-insts", func(c *Config) { c.MinInsts, c.MaxInsts = -8, -4 }, false},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpectedly rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: unexpectedly accepted", tc.name)
		}
	}
}

// TestInputMutatorDeterministic: two mutators with the same seed produce
// the identical mutant sequence (registers and memory), the property that
// lets the engine rebuild any work unit's inputs from its seed alone.
func TestInputMutatorDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 55
	gA, gB := New(cfg), New(cfg)
	mA, mB := NewMutator(123, true, false), NewMutator(123, true, false)
	mutants := 0
	for i := 0; i < 10; i++ {
		pA, pB := gA.Program(), gB.Program()
		mdA := contract.NewModel(contract.CTSeq, pA, gA.Sandbox())
		mdB := contract.NewModel(contract.CTSeq, pB, gB.Sandbox())
		baseA, baseB := gA.Input(), gB.Input()
		trA, useA := mdA.Collect(baseA)
		trB, useB := mdB.Collect(baseB)
		for k := 0; k < 6; k++ {
			a, okA := mA.Mutate(mdA, baseA, useA, trA)
			b, okB := mB.Mutate(mdB, baseB, useB, trB)
			if okA != okB {
				t.Fatalf("program %d mutant %d: acceptance diverged", i, k)
			}
			if !okA {
				continue
			}
			mutants++
			if a.Regs != b.Regs {
				t.Fatalf("program %d mutant %d: register streams diverged", i, k)
			}
			if !bytes.Equal(a.Mem.Dense(), b.Mem.Dense()) {
				t.Fatalf("program %d mutant %d: memory streams diverged", i, k)
			}
		}
	}
	if mutants == 0 {
		t.Fatalf("no mutants produced; the determinism check never ran")
	}
}

func TestMutatorPreservesContractTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	g := New(cfg)
	sb := g.Sandbox()
	mut := NewMutator(99, true, false)

	accepted := 0
	for i := 0; i < 60; i++ {
		p := g.Program()
		md := contract.NewModel(contract.CTSeq, p, sb)
		base := g.Input()
		tr, usage := md.Collect(base)
		mutant, ok := mut.Mutate(md, base, usage, tr)
		if !ok {
			continue
		}
		accepted++
		tr2, _ := md.Collect(mutant)
		if !tr.Equal(tr2) {
			t.Fatalf("program %d: mutant broke the contract trace", i)
		}
		if bytes.Equal(mutant.Mem.Dense(), base.Mem.Dense()) && mutant.Regs == base.Regs {
			t.Errorf("program %d: mutant identical to base", i)
		}
	}
	if accepted < 30 {
		t.Errorf("only %d/60 mutants accepted; mutation too weak", accepted)
	}
}

func TestMutatorRespectsLiveState(t *testing.T) {
	// A program whose whole behaviour depends on R0 and mem[0..7]: those
	// must survive mutation untouched.
	p := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0, 8),
		isa.CmpImm(1, 0),
		isa.Branch(isa.CondNE, 4),
		isa.Nop(),
	}}
	sb := isa.Sandbox{Pages: 1}
	md := contract.NewModel(contract.CTSeq, p, sb)
	base := isa.NewInput(sb)
	base.Regs[0] = 16
	base.Mem.SetByte(16, 1)
	tr, usage := md.Collect(base)

	mut := NewMutator(3, true, false)
	for i := 0; i < 10; i++ {
		mutant, ok := mut.Mutate(md, base, usage, tr)
		if !ok {
			t.Fatalf("mutation failed")
		}
		if mutant.Regs[0] != base.Regs[0] {
			t.Errorf("live-in register mutated")
		}
		for k := uint64(16); k < 24; k++ {
			if mutant.Mem.Byte(k) != base.Mem.Byte(k) {
				t.Errorf("architecturally loaded byte %d mutated", k)
			}
		}
	}
}

// TestInputValuesCoverMagnitudes loosely checks the mixed-magnitude
// register distribution (small offsets and wide values both occur).
func TestInputValuesCoverMagnitudes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	g := New(cfg)
	small, large := 0, 0
	for i := 0; i < 50; i++ {
		in := g.Input()
		for _, v := range in.Regs {
			if v < 1<<16 {
				small++
			}
			if v > 1<<48 {
				large++
			}
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("register magnitudes not mixed: small=%d large=%d", small, large)
	}
}

// TestProgramsAreDAGsProperty: every generated program's branches are
// strictly forward for arbitrary seeds.
func TestProgramsAreDAGsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		p := New(cfg).Program()
		for i, in := range p.Insts {
			if in.Op.IsControl() && in.Target <= i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMutateCollectAllocsIndependentOfSandbox pins the O(touched) claim on
// the paper's 128-page STT geometry: once warm, collecting a contract trace
// allocates nothing, and deriving a mutant allocates the mutant — its
// Input, its page table and the pages the restored contract-visible bytes
// live in, each with the one block it holds — and not one byte
// proportional to the 512 KB sandbox. The dense
// representation allocated and copied the sandbox several times per mutant.
func TestMutateCollectAllocsIndependentOfSandbox(t *testing.T) {
	sb := isa.Sandbox{Pages: 128}
	// Three loads on three different pages, one store on a fourth.
	prog := &isa.Program{Insts: []isa.Inst{
		isa.Load(1, 0, 0x10, 8),
		isa.Load(2, 0, 0x5020, 8),
		isa.Load(3, 0, 0x7f000, 4),
		isa.Store(0, 0x9008, 1, 8),
	}}
	cfg := DefaultConfig()
	cfg.Seed, cfg.Pages = 11, sb.Pages
	base := New(cfg).Input()
	base.Regs[0] = 0
	model := contract.NewModel(contract.ArchSeq, prog, sb)
	mut := NewMutator(12, false, false)
	var buf contract.Trace
	run := func() {
		tr, usage := model.CollectInto(base, buf)
		buf = tr
		if _, ok := mut.Mutate(model, base, usage, tr); !ok {
			t.Fatal("mutation rejected")
		}
	}
	run() // size the trace buffer and the model's private pages

	const loadedPages = 3
	if allocs := testing.AllocsPerRun(50, run); allocs > 2+loadedPages {
		t.Errorf("collect + mutate allocates %v objects, want <= %d (input, page table, %d pages with their blocks)",
			allocs, 2+loadedPages, loadedPages)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 50
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	// A one-word page costs 640 bytes (its 128-byte page and one 512-byte
	// block, allocated together), so the mutant is ≈ 3.5 KB measured: the
	// Input, its 1 KB page table and three such pages. Three whole 4 KB
	// pages alone would be past the bound.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4<<10 {
		t.Errorf("collect + mutate allocates %d bytes per mutant on a %d-byte sandbox, want < 4 KB", per, sb.Size())
	}
}

// BenchmarkCollectMutate prices what the fuzzer does per mutant before the
// simulator runs: collect the base input's trace and derive one mutant from
// it, on generated programs, on the default sandbox and on the
// paper's 128-page STT one (ARCH-SEQ, the model-stt workload's contract).
// Both pay for every store the model commits into a page of its view.
func BenchmarkCollectMutate(b *testing.B) {
	for _, pages := range []int{1, 128} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Pages = 21, pages
			g := New(cfg)
			sb := g.Sandbox()
			type unit struct {
				model *contract.Model
				base  *isa.Input
			}
			var units []unit
			for i := 0; i < 16; i++ {
				units = append(units, unit{contract.NewModel(contract.ArchSeq, g.Program(), sb), g.Input()})
			}
			mut := NewMutator(22, false, false)
			slab := isa.NewSlab(sb, 1)
			var buf contract.Trace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := units[i%len(units)]
				slab.Reset(sb, 1)
				tr, usage := u.model.CollectInto(u.base, buf)
				buf = tr
				mut.MutateIn(slab, u.base, usage)
			}
		})
	}
}
