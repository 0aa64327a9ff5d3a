// Package fuzzer is AMuLeT-Go's core: it orchestrates the test generator,
// the leakage model and the executor into a model-based relational testing
// loop that searches for contract violations (Definition 2.1): pairs of
// inputs with identical contract traces but different micro-architectural
// traces.
//
// The loop is decomposed into program-level stages — generate,
// contract-model collect (Workspace.Case), µarch execute, compare, validate
// (ExecuteCase) — that internal/engine runs as work units on a worker pool.
// Campaigns run through engine.RunCampaign; this package holds the stages,
// the configuration and the result types.
package fuzzer

import (
	"context"
	"fmt"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config configures one fuzzing instance. Campaigns run many instances in
// parallel with distinct seeds (paper §4.1).
type Config struct {
	Contract contract.Contract
	Gen      generator.Config
	Exec     executor.Config

	// Frontend selects the source ISA programs are generated on
	// (isa.Frontend). Nil selects the toy register frontend — the paper's
	// setup, bit-identical to the pre-frontend pipeline. The frontend only
	// touches the generation stage: execution always runs the lowered µop
	// program.
	Frontend isa.Frontend

	// DefenseFactory builds the defense instance for this fuzzer's core.
	DefenseFactory func() uarch.Defense

	Seed     int64
	Programs int // test programs to generate
	// BaseInputs and MutantsPerInput multiply to the inputs per program
	// (the paper uses 140 inputs per program).
	BaseInputs      int
	MutantsPerInput int

	// StopOnFirstViolation ends the campaign at the first confirmed
	// violation (the paper's detection-time experiments).
	StopOnFirstViolation bool
}

// maxViolationsPerProgram bounds recorded violations per program to keep
// pathological programs from flooding the report.
const maxViolationsPerProgram = 4

// Validate reports configuration problems. Campaign entry points
// (Workspace.Reset, engine.RunCampaign) call it on entry.
func (c Config) Validate() error {
	if c.Programs < 1 || c.BaseInputs < 1 || c.MutantsPerInput < 0 {
		return fmt.Errorf("fuzzer: bad campaign sizes (programs=%d, base=%d, mutants=%d)",
			c.Programs, c.BaseInputs, c.MutantsPerInput)
	}
	if c.DefenseFactory == nil {
		return fmt.Errorf("fuzzer: DefenseFactory is required")
	}
	if err := c.Gen.Validate(); err != nil {
		return err
	}
	return c.Exec.Core.Validate()
}

// withDefaults resolves the frontend, the one zero-value knob.
func (c Config) withDefaults() Config {
	c.Frontend = c.ResolvedFrontend()
	return c
}

// ResolvedFrontend returns the configured frontend, defaulting to the toy
// register frontend. The engine uses it to stamp checkpoint and bundle
// identities without mutating the config.
func (c Config) ResolvedFrontend() isa.Frontend {
	if c.Frontend == nil {
		return isa.Toy
	}
	return c.Frontend
}

// Violation is one confirmed contract violation: two contract-equivalent
// inputs with different µarch traces, surviving the fresh-context
// validation re-run.
//
// A campaign holds every violation it finds until it ends, so a violation
// keeps its inputs in the sparse binary form the checkpoint log and the
// distributed wire carry (isa.Input.AppendBinary: registers, background
// fill, written words), not as materialized pages: InputA and InputB share
// one exact-size buffer, and Inputs decodes them when a replay needs them.
// CTrace is an exact-length copy of the class trace. A violation found in
// this process keeps its validation replay's traces in TraceA/TraceB
// (≈ 2.1 KB together; the rendered report shows them); one restored from a
// checkpoint or folded from a remote worker has none, and analysis.Analyze
// re-derives them by replay.
type Violation struct {
	Defense  string
	Contract string
	// Frontend names the ISA frontend the program was generated on; Source
	// is the frontend-level source program (for the toy frontend it is the
	// µop Program itself). Program is always the lowered µop program the
	// simulator executed — replays and fingerprints operate on it.
	Frontend string
	Source   isa.SourceProgram
	Program  *isa.Program
	Sandbox  isa.Sandbox
	InputA   []byte
	InputB   []byte
	CTrace   contract.Trace
	TraceA   *executor.UTrace
	TraceB   *executor.UTrace

	ProgramIndex int
	DetectedAt   time.Duration // since campaign start
}

// Inputs decodes the violating inputs.
func (v *Violation) Inputs() (a, b *isa.Input, err error) {
	a, b = &isa.Input{}, &isa.Input{}
	if err := a.UnmarshalBinary(v.InputA); err != nil {
		return nil, nil, fmt.Errorf("fuzzer: violation input A: %w", err)
	}
	if err := b.UnmarshalBinary(v.InputB); err != nil {
		return nil, nil, fmt.Errorf("fuzzer: violation input B: %w", err)
	}
	return a, b, nil
}

// PackInputs encodes a and b into scratch, grown as needed and returned for
// the next call, and copies the two encodings into one exact-size buffer:
// a Violation's InputA and InputB.
func PackInputs(scratch []byte, a, b *isa.Input) (inA, inB, grown []byte) {
	scratch, _ = a.AppendBinary(scratch[:0])
	n := len(scratch)
	scratch, _ = b.AppendBinary(scratch)
	buf := make([]byte, len(scratch))
	copy(buf, scratch)
	return buf[:n:n], buf[n:], scratch
}

// Result summarizes one fuzzing instance.
type Result struct {
	Violations []*Violation
	TestCases  int
	Programs   int
	Elapsed    time.Duration
	Metrics    executor.Metrics

	// ValidationRuns counts fresh-context re-runs triggered by µarch trace
	// mismatches (including those that turned out to be predictor-state
	// artifacts).
	ValidationRuns int
	// RejectedMutants counts mutants that could not be made: their base
	// input left nothing free to vary.
	RejectedMutants int

	// Coverage is the union of the speculation-coverage features observed
	// while executing this result's programs. Nil unless the executor ran
	// with coverage collection enabled (corpus-strategy campaigns).
	Coverage *uarch.Coverage

	// GenTime is time spent generating programs and inputs; ModelTime is
	// time spent collecting contract traces and deriving mutants from
	// them. Together with the executor metrics these give the paper's
	// Table 2 breakdown.
	GenTime   time.Duration
	ModelTime time.Duration
}

// Merge accumulates other into r (violations appended in call order;
// Elapsed summed). The engine uses it to fold per-program work-unit
// results into per-instance results in program-index order.
func (r *Result) Merge(other *Result) {
	r.Violations = append(r.Violations, other.Violations...)
	r.TestCases += other.TestCases
	r.Programs += other.Programs
	r.Elapsed += other.Elapsed
	r.Metrics.Add(other.Metrics)
	r.ValidationRuns += other.ValidationRuns
	r.RejectedMutants += other.RejectedMutants
	r.GenTime += other.GenTime
	r.ModelTime += other.ModelTime
	if other.Coverage != nil {
		if r.Coverage == nil {
			r.Coverage = uarch.NewCoverage()
		}
		r.Coverage.Merge(other.Coverage)
	}
}

// Throughput returns test cases per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TestCases) / r.Elapsed.Seconds()
}

// FirstDetection returns the earliest detection time across the recorded
// violations, and whether one exists. The minimum (not Violations[0]) is
// taken because the engine orders violations by program index, not by
// detection time.
func (r *Result) FirstDetection() (time.Duration, bool) {
	if len(r.Violations) == 0 {
		return 0, false
	}
	first := r.Violations[0].DetectedAt
	for _, v := range r.Violations[1:] {
		if v.DetectedAt < first {
			first = v.DetectedAt
		}
	}
	return first, true
}

// mutatorSeedMix decorrelates the mutator stream from the generator stream
// derived from the same seed.
const mutatorSeedMix = 0x5eed

// InputClass is one contract-equivalence class: inputs whose contract
// traces are identical.
type InputClass struct {
	CTrace contract.Trace
	Inputs []*isa.Input
}

// ProgramCase is the output of the generate and contract-model-collect
// stages for one test program: the program, its sandbox, and its inputs
// (bases plus contract-preserving mutants) grouped into contract-equivalence
// classes in deterministic first-seen order.
type ProgramCase struct {
	Index int
	// Source is the frontend-level program; Prog its µop lowering (the same
	// object on the toy frontend).
	Source  isa.SourceProgram
	Prog    *isa.Program
	SB      isa.Sandbox
	Classes []*InputClass

	GenTime         time.Duration
	ModelTime       time.Duration
	RejectedMutants int
	// Truncations counts this program's leakage-model runs (one per base
	// input) that hit contract.MaxSteps before exiting; ExecuteCase folds
	// it into the executor metrics.
	Truncations int

	// ws is the workspace that built the case, nil for a hand-built one.
	// ExecuteCase recycles the class traces into its pool once they have
	// been compared, and runs on its trace and encoding scratch.
	ws *Workspace
}

// ExecuteCase runs the µarch execute → compare → validate stages of one
// program case on exec, accumulating test counts and confirmed violations
// into res. DetectedAt stamps are relative to start. It reports whether at
// least one confirmed violation was found; on a context error it returns
// what it accumulated so far plus the context's error.
func ExecuteCase(ctx context.Context, exec *executor.Executor, cfg Config, pc *ProgramCase, res *Result, start time.Time) (bool, error) {
	cfg = cfg.withDefaults()
	if err := exec.LoadProgram(pc.Prog, pc.SB); err != nil {
		return false, err
	}
	if cov := exec.Coverage(); cov != nil {
		// Per-case coverage: cleared here (after the LoadProgram startup,
		// whose checkpoint restore is not signal) and folded into the
		// result on every exit path, so each work unit reports exactly the
		// features its own program exercised.
		exec.ResetCoverage()
		defer func() {
			if res.Coverage == nil {
				res.Coverage = uarch.NewCoverage()
			}
			res.Coverage.Merge(cov)
		}()
	}
	defer func() {
		// The class traces have served their purpose (compared, and copied
		// into the violations that need them): recycle them.
		if pc.ws != nil {
			pc.ws.recycleTraces()
		}
	}()
	res.Programs++
	res.GenTime += pc.GenTime
	res.ModelTime += pc.ModelTime
	res.RejectedMutants += pc.RejectedMutants
	exec.CountTruncations(pc.Truncations)
	defName := exec.Core().Defense().Name()

	found := false
	violations := 0
	// traces is the per-class trace scratch (the workspace's, when the case
	// has one); every trace in it goes back to the executor's recycle list
	// once the class has been compared (the violation report only retains
	// the validation replay's traces).
	maxClass := 0
	for _, cls := range pc.Classes {
		maxClass = max(maxClass, len(cls.Inputs))
	}
	var traces []*executor.UTrace
	if pc.ws != nil {
		traces = pc.ws.traces
	}
	if cap(traces) < maxClass {
		traces = make([]*executor.UTrace, 0, maxClass)
		if pc.ws != nil {
			pc.ws.traces = traces
		}
	}
	for _, cls := range pc.Classes {
		traces = traces[:0]
		for _, in := range cls.Inputs {
			if err := ctx.Err(); err != nil {
				return found, err
			}
			tr, err := exec.Run(in)
			if err != nil {
				return found, fmt.Errorf("fuzzer: program %d: %w", pc.Index, err)
			}
			res.TestCases++
			traces = append(traces, tr)
		}
		i, j, differ := 0, 0, false
		if violations < maxViolationsPerProgram {
			i, j, differ = firstDiffPair(traces)
		}
		for _, tr := range traces {
			exec.ReleaseTrace(tr)
		}
		if !differ {
			continue
		}
		ok, trA, trB, err := validatePair(exec, cls.Inputs[i], cls.Inputs[j], res)
		if err != nil {
			return found, err
		}
		if !ok {
			continue
		}
		// Copies: a violation outlives its case by the whole campaign and
		// must not pin the slab all of the case's inputs share, the pooled
		// class trace, nor the replay traces' cache-sized buffers, which go
		// back to the executor.
		var scratch []byte
		if pc.ws != nil {
			scratch = pc.ws.enc
		}
		inA, inB, scratch := PackInputs(scratch, cls.Inputs[i], cls.Inputs[j])
		if pc.ws != nil {
			pc.ws.enc = scratch
		}
		ctrace := make(contract.Trace, len(cls.CTrace))
		copy(ctrace, cls.CTrace)
		keptA, keptB := trA.Clone(), trB.Clone()
		exec.ReleaseTrace(trA)
		exec.ReleaseTrace(trB)
		res.Violations = append(res.Violations, &Violation{
			Defense:      defName,
			Contract:     cfg.Contract.Name,
			Frontend:     cfg.Frontend.Name(),
			Source:       pc.Source,
			Program:      pc.Prog,
			Sandbox:      pc.SB,
			InputA:       inA,
			InputB:       inB,
			CTrace:       ctrace,
			TraceA:       keptA,
			TraceB:       keptB,
			ProgramIndex: pc.Index,
			DetectedAt:   time.Since(start),
		})
		violations++
		found = true
		if cfg.StopOnFirstViolation {
			return true, nil
		}
	}
	return found, nil
}

// firstDiffPair returns the indices of the first differing trace pair. Each
// trace is compared by content against the class's first one: an all-equal
// class, the common case, costs one exact walk per trace.
func firstDiffPair(traces []*executor.UTrace) (int, int, bool) {
	for i := 1; i < len(traces); i++ {
		if !traces[0].Equal(traces[i]) {
			return 0, i, true
		}
	}
	return 0, 0, false
}

// validatePair re-runs both inputs from an identical captured
// micro-architectural context. Only a persisting difference is a real
// input-dependent leak; differences caused by the different predictor
// state the Opt strategy carried into the two original runs disappear here
// (paper §3.2, validation of AMuLeT-Opt violations). Traces of replays
// that do not confirm a violation are recycled.
func validatePair(exec *executor.Executor, a, b *isa.Input, res *Result) (bool, *executor.UTrace, *executor.UTrace, error) {
	res.ValidationRuns++
	trA, trB, err := exec.RunValidationPair(a, b)
	if err != nil {
		return false, nil, nil, err
	}
	res.TestCases += 3
	if trA.Equal(trB) {
		exec.ReleaseTrace(trA)
		exec.ReleaseTrace(trB)
		return false, nil, nil, nil
	}
	return true, trA, trB, nil
}
