package analysis

import (
	"fmt"
	"strings"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Minimize shrinks a violation's test program while preserving the
// violation: it greedily replaces instructions with NOPs (keeping indices
// and branch targets stable) as long as (a) the two inputs remain
// contract-equivalent on the reduced program and (b) their µarch traces
// still differ under the common-context replay. The paper root-causes
// violations by hand from ~50-instruction programs; minimization typically
// cuts them to the handful of instructions that form the actual gadget.
//
// The executor must be configured like the campaign that found the
// violation. Minimize returns a new violation record with the reduced
// program (the original is not modified) and the number of instructions
// NOPed out.
func Minimize(exec *executor.Executor, c contract.Contract, v *fuzzer.Violation) (*fuzzer.Violation, int, error) {
	inA, inB, err := v.Inputs()
	if err != nil {
		return nil, 0, err
	}
	prog := v.Program.Clone()
	removed := 0

	// still reports whether the violation persists on the candidate
	// program.
	still := func(p *isa.Program) (bool, *executor.UTrace, *executor.UTrace, error) {
		md := contract.NewModel(c, p, v.Sandbox)
		trA, _ := md.Collect(inA)
		trB, _ := md.Collect(inB)
		if !trA.Equal(trB) {
			return false, nil, nil, nil
		}
		if err := exec.LoadProgram(p, v.Sandbox); err != nil {
			return false, nil, nil, err
		}
		uA, uB, err := exec.RunValidationPair(inA, inB)
		if err != nil {
			return false, nil, nil, err
		}
		return !uA.Equal(uB), uA, uB, nil
	}

	ok, _, _, err := still(prog)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		// The violation does not reproduce (e.g. executor configured
		// differently); return the original untouched.
		return v, 0, nil
	}

	var lastA, lastB *executor.UTrace
	for pass := 0; pass < 4; pass++ {
		changed := false
		for i := range prog.Insts {
			in := prog.Insts[i]
			if in.Op == isa.OpNop {
				continue
			}
			saved := prog.Insts[i]
			prog.Insts[i] = isa.Nop()
			ok, uA, uB, err := still(prog)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				removed++
				changed = true
				lastA, lastB = uA, uB
			} else {
				prog.Insts[i] = saved
			}
		}
		if !changed {
			break
		}
	}

	out := *v
	out.Program = prog
	if lastA != nil {
		out.TraceA, out.TraceB = lastA, lastB
	}
	return &out, removed, nil
}

// Compact renders a minimized program without its NOP filler. Instruction
// indices are preserved (branch targets reference them), so the remaining
// lines keep their original labels.
func Compact(p *isa.Program) string {
	var b strings.Builder
	for i, in := range p.Insts {
		if in.Op == isa.OpNop {
			continue
		}
		fmt.Fprintf(&b, ".L%-3d %s\n", i, in)
	}
	return b.String()
}
