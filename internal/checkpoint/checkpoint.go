// Package checkpoint persists campaign state so a fuzzing campaign can die
// anywhere — SIGINT, a worker panic, a machine crash — and resume to
// bit-identical final results. The engine's determinism contract (seed-
// addressable work units, (instance, program)-ordered folding) is what
// makes this possible: a checkpoint only has to record *which* units
// completed and what they produced, never any scheduling state.
//
// # File format
//
// A checkpoint is a single file, checkpoint.amulet, in the checkpoint
// directory:
//
//	AMULETCKPT2 <fnv64a-digest-hex> <payload-length>\n
//	<JSON-encoded State>
//
// The header's digest covers exactly the payload bytes. Load rejects any
// file whose length or digest disagrees with its header (ErrCorrupt), so a
// torn or bit-flipped checkpoint can never be half-applied — the caller
// falls back to a fresh campaign instead of resuming from garbage.
//
// # Atomicity
//
// Save writes a temp file in the same directory, fsyncs it, renames it
// over the previous checkpoint, and fsyncs the directory. A crash between
// any two of those steps leaves either the old complete checkpoint or the
// new complete checkpoint on disk, never a mixture; the fault-injection
// tests kill the write between every pair of steps and prove it.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// FileName is the checkpoint file inside the checkpoint directory.
const FileName = "checkpoint.amulet"

// magic is the format/version tag; a format change bumps it, and Load
// rejects unknown tags rather than guessing. Version 2 introduced
// frontend-tagged source-program records (ProgRec) and the State.Frontend
// header when the ISA frontends became pluggable.
const magic = "AMULETCKPT2"

// Write steps, in execution order — the coordinates KindCrashAtStep
// injection points address. StepDirSync is last: a crash after the rename
// but before the directory sync can still lose the rename on power fail,
// which is exactly the window the tests exercise.
const (
	StepTempWrite = iota // writing the temp file
	StepTempSync         // fsync of the temp file
	StepRename           // rename over the live checkpoint
	StepDirSync          // fsync of the directory
)

// ErrCorrupt reports a checkpoint whose bytes disagree with the self
// digest in its header. Resume must treat it as absent-with-extreme-
// prejudice: the caller reports it and starts fresh rather than trusting
// any part of the payload.
var ErrCorrupt = errors.New("checkpoint: digest mismatch (corrupt or torn checkpoint)")

// ProgRec serializes one frontend-level source program, tagged with the
// owning frontend's name so decoding resolves the right decoder through the
// isa frontend registry.
type ProgRec struct {
	Frontend string
	Data     []byte
}

// EncodeProg serializes a source program through its frontend.
func EncodeProg(src isa.SourceProgram) (*ProgRec, error) {
	fe, err := isa.FrontendByName(src.FrontendName())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	data, err := fe.EncodeProgram(src)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode %s program: %w", fe.Name(), err)
	}
	return &ProgRec{Frontend: fe.Name(), Data: data}, nil
}

// Decode rebuilds the source program through the registered frontend. An
// unregistered frontend name is an error: replaying the bytes under the
// wrong decoder would silently produce garbage.
func (r *ProgRec) Decode() (isa.SourceProgram, error) {
	if r == nil {
		return nil, fmt.Errorf("checkpoint: missing program record")
	}
	fe, err := isa.FrontendByName(r.Frontend)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	src, err := fe.DecodeProgram(r.Data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode %s program: %w", r.Frontend, err)
	}
	return src, nil
}

// ViolationRec is the serializable mirror of fuzzer.Violation. The µarch
// traces (TraceA/TraceB) are deliberately dropped: they are large, and the
// analysis replay regenerates them deterministically from the program and
// inputs when a report is requested. Program is always the lowered µop
// program (what replays execute); Source is the frontend-level program,
// recorded only when it is a distinct object (non-toy frontends).
type ViolationRec struct {
	Defense      string
	Contract     string
	Frontend     string   `json:",omitempty"`
	Source       *ProgRec `json:",omitempty"`
	Program      *isa.Program
	Sandbox      isa.Sandbox
	InputA       *isa.Input
	InputB       *isa.Input
	CTrace       contract.Trace
	ProgramIndex int
	DetectedAt   time.Duration
}

// UnmarshalJSON implements json.Unmarshaler. A record is read from bytes this
// process did not write — a checkpoint file, a worker's submission — and its
// inputs are later replayed on a machine built for the record's Sandbox, so
// a record whose inputs are missing or of another geometry is rejected here,
// as a decode error, rather than panicking at replay.
func (r *ViolationRec) UnmarshalJSON(data []byte) error {
	type plain ViolationRec // the same fields, without this method
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	for _, in := range []*isa.Input{p.InputA, p.InputB} {
		if in == nil {
			return fmt.Errorf("checkpoint: violation record without both inputs")
		}
		if sb := in.Mem.Sandbox(); sb != p.Sandbox {
			return fmt.Errorf("checkpoint: violation input has %d pages, its record's sandbox %d", sb.Pages, p.Sandbox.Pages)
		}
	}
	*r = ViolationRec(p)
	return nil
}

// EncodeViolation converts a live violation to its checkpoint record.
func EncodeViolation(v *fuzzer.Violation) ViolationRec {
	rec := ViolationRec{
		Defense:      v.Defense,
		Contract:     v.Contract,
		Frontend:     v.Frontend,
		Program:      v.Program,
		Sandbox:      v.Sandbox,
		InputA:       v.InputA,
		InputB:       v.InputB,
		CTrace:       v.CTrace,
		ProgramIndex: v.ProgramIndex,
		DetectedAt:   v.DetectedAt,
	}
	if v.Source != nil {
		if p, ok := v.Source.(*isa.Program); !ok || p != v.Program {
			// The source is a distinct frontend-level object; persist it.
			// Best effort: the µop program is the replayable artifact, the
			// source is the human-readable provenance.
			if src, err := EncodeProg(v.Source); err == nil {
				rec.Source = src
			}
		}
	}
	return rec
}

// Decode rebuilds the violation. TraceA/TraceB are nil; analysis.Analyze
// regenerates them by replay when needed. When no separate source program
// was recorded the µop program doubles as the source (toy frontend).
func (r ViolationRec) Decode() *fuzzer.Violation {
	v := &fuzzer.Violation{
		Defense:      r.Defense,
		Contract:     r.Contract,
		Frontend:     r.Frontend,
		Program:      r.Program,
		Sandbox:      r.Sandbox,
		InputA:       r.InputA,
		InputB:       r.InputB,
		CTrace:       r.CTrace,
		ProgramIndex: r.ProgramIndex,
		DetectedAt:   r.DetectedAt,
	}
	if v.Frontend == "" {
		v.Frontend = isa.ToyName
	}
	if r.Source != nil {
		if src, err := r.Source.Decode(); err == nil {
			v.Source = src
		}
	}
	if v.Source == nil && r.Program != nil {
		v.Source = r.Program
	}
	return v
}

// ResultRec is the serializable mirror of fuzzer.Result for one completed
// work unit.
type ResultRec struct {
	TestCases       int
	Programs        int
	Elapsed         time.Duration
	Metrics         executor.Metrics
	ValidationRuns  int
	RejectedMutants int
	GenTime         time.Duration
	ModelTime       time.Duration
	Coverage        []uint64       `json:",omitempty"`
	Violations      []ViolationRec `json:",omitempty"`
}

// EncodeResult converts a unit result to its checkpoint record.
func EncodeResult(r *fuzzer.Result) ResultRec {
	rec := ResultRec{
		TestCases:       r.TestCases,
		Programs:        r.Programs,
		Elapsed:         r.Elapsed,
		Metrics:         r.Metrics,
		ValidationRuns:  r.ValidationRuns,
		RejectedMutants: r.RejectedMutants,
		GenTime:         r.GenTime,
		ModelTime:       r.ModelTime,
	}
	if r.Coverage != nil {
		rec.Coverage = r.Coverage.Words()
	}
	for _, v := range r.Violations {
		rec.Violations = append(rec.Violations, EncodeViolation(v))
	}
	return rec
}

// Decode rebuilds the unit result.
func (r ResultRec) Decode() *fuzzer.Result {
	res := &fuzzer.Result{
		TestCases:       r.TestCases,
		Programs:        r.Programs,
		Elapsed:         r.Elapsed,
		Metrics:         r.Metrics,
		ValidationRuns:  r.ValidationRuns,
		RejectedMutants: r.RejectedMutants,
		GenTime:         r.GenTime,
		ModelTime:       r.ModelTime,
	}
	if r.Coverage != nil {
		res.Coverage = coverageFromWords(r.Coverage)
	}
	for _, v := range r.Violations {
		res.Violations = append(res.Violations, v.Decode())
	}
	return res
}

// UnitRec is one completed work unit: its coordinates, its result, the
// RNG draw counter its generation stream ended on (a diagnostic that pins
// the unit's PRNG consumption — streams are counter-based, so a resumed
// unit that drew a different count did not replay the same work), and —
// only while the unit's epoch awaits corpus admission — the generated
// program.
type UnitRec struct {
	Inst, Prog int
	RNGDraws   uint64
	Result     ResultRec
	// GenSrc is the unit's generated source program, retained only for
	// units of epochs whose corpus admission has not happened yet (corpus
	// strategy); admitted epochs' programs live in Corpus or are dropped.
	GenSrc *ProgRec `json:",omitempty"`
}

// CorpusRec is one admitted corpus entry.
type CorpusRec struct {
	Src       *ProgRec
	NewBits   int
	Violating bool
}

// State is everything a campaign needs to resume: the campaign identity
// (config fingerprint + shape), per-unit progress and results, and the
// corpus-strategy epoch state (admitted entries plus the merged coverage
// bitmap, both frozen at the last completed epoch boundary).
type State struct {
	// ConfigFP fingerprints the campaign configuration; resume refuses a
	// checkpoint whose fingerprint disagrees with the configured campaign
	// (same seed, different config silently produces garbage otherwise).
	ConfigFP uint64
	Seed     int64

	Instances, Programs, Epochs int
	Strategy                    string
	// Frontend names the ISA frontend the campaign generated programs on;
	// resume refuses a checkpoint whose frontend disagrees with the
	// configured campaign rather than replaying records under the wrong
	// decoder.
	Frontend string

	// EpochsDone is how many epochs completed *and were admitted*; units
	// of later epochs may still appear in Units (partial-epoch progress
	// drained before a final checkpoint).
	EpochsDone int

	Units    []UnitRec
	Corpus   []CorpusRec `json:",omitempty"`
	Coverage []uint64    `json:",omitempty"`
}

// Save atomically writes st as dir's checkpoint, creating dir if needed.
// inj (nil in production) lets the fault-injection tests kill the write
// between steps and corrupt payload bytes after the digest is computed.
func Save(dir string, st *State, inj *faultinject.Injector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	header := fmt.Sprintf("%s %016x %d\n", magic, h.Sum64(), len(payload))
	// Injected corruption happens after the digest so the file lands on
	// disk exactly as bit rot or a torn sector would leave it.
	inj.MutateBytes(payload)
	return writeAtomic(dir, FileName, append([]byte(header), payload...), inj)
}

// writeAtomic lands data as dir/name under the checkpoint write protocol:
// temp file in the same directory, fsync, rename over the live file, fsync
// the directory. A crash between any two steps leaves either the old
// complete file or the new complete file, never a mixture. inj's
// KindCrashAtStep points (nil in production) kill the write between steps,
// leaving the filesystem exactly as a process crash there would.
func writeAtomic(dir, name string, data []byte, inj *faultinject.Injector) error {
	tmp := filepath.Join(dir, name+".tmp")
	final := filepath.Join(dir, name)
	if inj.CrashAt(StepTempWrite) {
		return faultinject.ErrInjectedCrash
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if inj.CrashAt(StepTempSync) {
		f.Close()
		return faultinject.ErrInjectedCrash
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if inj.CrashAt(StepRename) {
		return faultinject.ErrInjectedCrash
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if inj.CrashAt(StepDirSync) {
		return faultinject.ErrInjectedCrash
	}
	if d, err := os.Open(dir); err == nil {
		// Best-effort: some filesystems reject directory fsync.
		d.Sync()
		d.Close()
	}
	return nil
}

// coverageFromWords rebuilds a coverage bitmap from checkpointed words.
func coverageFromWords(words []uint64) *uarch.Coverage {
	c := uarch.NewCoverage()
	c.LoadWords(words)
	return c
}

// Load reads and verifies dir's checkpoint. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist) — "no checkpoint yet" is
// the caller's fresh-start path. A present but corrupt or truncated file
// returns an error wrapping ErrCorrupt.
func Load(dir string) (*State, error) {
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var digest uint64
	var length int
	var tag string
	n, err := fmt.Sscanf(string(firstLine(raw)), "%s %x %d", &tag, &digest, &length)
	if err != nil || n != 3 || tag != magic {
		return nil, fmt.Errorf("checkpoint: unrecognized header: %w", ErrCorrupt)
	}
	payload := raw[len(firstLine(raw))+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("checkpoint: payload is %d bytes, header says %d: %w",
			len(payload), length, ErrCorrupt)
	}
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != digest {
		return nil, fmt.Errorf("checkpoint: payload digest %016x, header says %016x: %w",
			h.Sum64(), digest, ErrCorrupt)
	}
	st := &State{}
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %v: %w", err, ErrCorrupt)
	}
	return st, nil
}

// firstLine returns raw up to (excluding) the first newline.
func firstLine(raw []byte) []byte {
	for i, b := range raw {
		if b == '\n' {
			return raw[:i]
		}
	}
	return raw
}
