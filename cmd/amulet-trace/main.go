// Command amulet-trace runs a single generated test case on a defense and
// dumps everything AMuLeT-Go sees: the program, the contract trace, the
// µarch trace and the simulator debug log. It is the "look at one test
// under the microscope" tool used when studying the pipeline or a defense.
//
// Usage:
//
//	amulet-trace -defense invisispec -seed 7 -program 3 -input 2
//	amulet-trace -defense baseline -isa wasm -seed 7 -program 3
//
// With -dump-log DIR it instead prints the records of the checkpoint log in
// DIR, one JSON object per line: the log is binary, and this keeps it
// readable (inputs as registers, fill and written words).
//
//	amulet-trace -dump-log /tmp/ck
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	_ "github.com/sith-lab/amulet-go/internal/isa/wasm" // register the stack frontend
	"github.com/sith-lab/amulet-go/internal/uarch"
)

func main() {
	var (
		defense = flag.String("defense", "baseline", "defense configuration")
		isaName = flag.String("isa", isa.ToyName, "ISA frontend generating the test program ("+strings.Join(isa.FrontendNames(), ", ")+")")
		seed    = flag.Int64("seed", 1, "generator seed")
		program = flag.Int("program", 0, "program index within the seed's stream")
		input   = flag.Int("input", 0, "input index within the program")
		prime   = flag.Bool("prime", true, "prime the L1D before the run as the defense's campaigns do: fill it (and the D-TLB) with conflicting lines, or invalidate it")
		dumpDir = flag.String("dump-log", "", "print the records of the checkpoint log in `DIR` as JSON lines, then exit")
	)
	flag.Parse()
	if *dumpDir != "" {
		if err := dumpLog(os.Stdout, *dumpDir); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := experiments.DefenseByName(*defense)
	if err != nil {
		fatal(err)
	}
	fe, err := isa.FrontendByName(*isaName)
	if err != nil {
		fatal(err)
	}
	gcfg := generator.DefaultConfig()
	gcfg.Seed = *seed
	gcfg.Pages = spec.Pages
	g := generator.NewFor(gcfg, fe)
	sb := g.Sandbox()

	var src isa.SourceProgram
	for i := 0; i <= *program; i++ {
		src = g.Source()
	}
	prog := fe.Lower(src)
	var in *isa.Input
	for i := 0; i <= *input; i++ {
		in = g.Input()
	}

	fmt.Printf("=== test program (defense=%s isa=%s seed=%d program=%d input=%d) ===\n%s\n",
		spec.Name, fe.Name(), *seed, *program, *input, src)
	if fe.Name() != isa.ToyName {
		fmt.Printf("=== lowered µops (%d source insts -> %d µops) ===\n%s\n",
			src.Len(), prog.Len(), prog)
	}

	md := contract.NewModel(spec.Contract, prog, sb)
	ctrace, usage := md.Collect(in)
	fmt.Printf("=== contract trace (%s, %d observations, hash %#x) ===\n%s\n\n",
		spec.Contract.Name, len(ctrace), ctrace.Hash(), ctrace)
	fmt.Printf("loaded bytes (every explored path): %d; live-in registers: %#x\n\n",
		usage.LoadedCount(), usage.LiveInRegs)

	core, err := newCore(spec, prog, sb, *prime)
	if err != nil {
		fatal(err)
	}
	core.Log.Enabled = true
	core.ResetForInput(in)
	if err := core.Run(); err != nil {
		fatal(err)
	}

	st := core.Stats()
	fmt.Printf("=== simulation ===\ncycles=%d fetched=%d committed=%d squashed=%d mispredicts=%d memOrderViolations=%d\n",
		st.Cycles, st.Fetched, st.Committed, st.Squashed, st.Mispredicts, st.MemOrderViolations)
	fmt.Printf("L1D accesses=%d misses=%d TLB misses=%d\n\n", st.L1DAccesses, st.L1DMisses, st.TLBMisses)

	fmt.Printf("=== µarch trace ===\nL1D tags: %#x\nD-TLB pages: %#x\nL1I tags: %#x\n\n",
		core.Hier.L1D.Snapshot(), core.Hier.DTLB.Snapshot(), core.Hier.L1I.Snapshot())

	fmt.Printf("=== debug log (%d records) ===\n%s", len(core.Log.Recs), core.Log.String())
}

// newCore loads prog into a fresh core for the defense and, with prime set,
// primes the L1D the way the defense's campaigns do (spec.Prime).
func newCore(spec experiments.DefenseSpec, prog *isa.Program, sb isa.Sandbox, prime bool) (*uarch.Core, error) {
	core := uarch.NewCore(uarch.DefaultConfig(), spec.Factory())
	if err := core.LoadTest(prog, sb); err != nil {
		return nil, err
	}
	core.ResetUarch()
	if prime {
		switch spec.Prime {
		case executor.PrimeFill:
			core.Hier.PrimeL1D(false)
		case executor.PrimeInvalidate:
			core.Hier.PrimeInvalidate(false)
		}
	}
	return core, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amulet-trace:", err)
	os.Exit(1)
}
