// Package checkpoint persists campaign state so a fuzzing campaign can die
// anywhere — SIGINT, SIGKILL, a worker panic, a machine crash — and resume to
// bit-identical final results. The engine's determinism contract (seed-
// addressable work units, (instance, program)-ordered folding) is what
// makes this possible: a checkpoint only has to record *which* units
// completed and what they produced, never any scheduling state.
//
// # File format
//
// A checkpoint is a single append-only file, checkpoint.amulet, in the
// checkpoint directory: a format tag, then records.
//
//	AMULETCKPT3\n
//	record*
//	record := kind (1 byte) | length (uint32 LE) | CRC-32C (uint32 LE) | payload (length bytes, JSON)
//
// The CRC (Castagnoli) covers kind, length and payload. Four kinds exist:
//
//	H  header   the campaign identity (config fingerprint, seed, shape,
//	            strategy, frontend); always first, written when the log is
//	            created
//	U  unit     one completed unit (UnitRec), appended by the worker
//	            goroutine that just finished it — every result is encoded
//	            once and written once, and no buffer ever holds more than one
//	            record
//	C  commit   an epoch boundary: EpochsDone, the corpus entries admitted
//	            since the previous commit, the merged coverage words
//	P  pending  the generated programs of the done units of the epoch still
//	            awaiting admission, written when a cancelled campaign has
//	            drained its workers
//
// A unit record of a random-strategy campaign stands alone: the unit is
// done. Under the corpus strategy a unit's epoch is admitted from the
// generated programs of all its units, so a unit of an epoch with no commit
// record yet is restored only if a pending record carries its program;
// Load drops the others and resume runs them again. Files of earlier
// formats (AMULETCKPT2 was one JSON document rewritten whole at every
// save) are refused by their tag.
//
// # What is durable when
//
// Appends go to the page cache. The file is fsynced after every commit
// record, after the pending record of an interrupted campaign, and — on a
// distributed coordinator — every CoordinatorConfig.CheckpointEvery folds;
// the directory is fsynced once, with the first of those. So a killed
// process (SIGKILL, panic, OOM) loses at most the record it was in the
// middle of writing, and a machine that loses power keeps at least
// everything up to the last fsync.
//
// # Torn tail vs. corruption
//
// Load applies records in order and never applies anything after a record
// whose length or CRC fails. When that record is the last thing in the file
// it is a torn append — the process died mid-write — and is dropped: the
// state before it is returned, old or new, never a mixture. When bytes
// follow it, or it is the header, the file was damaged after it was written
// and Load returns ErrCorrupt (so does an unsynced tail that a power loss
// persisted out of order). A file that ends before its first whole record
// holds nothing and loads as "no checkpoint yet". Resume truncates the file
// to the end of the last applied record and appends from there. A failed
// append (disk full, permissions) truncates the file back the same way
// before it is reported, so half a record never precedes later ones.
//
// One flip cannot be told from a tear: a corrupted length field that makes a
// middle record claim to run past the end of the file reads as a torn tail,
// and the records behind it are re-run rather than restored — work is lost,
// results are not.
//
// # Atomic files
//
// Save (a whole State written at once — tests and benchmarks) and
// quarantine bundles are written whole instead: temp file in the same
// directory, fsync, rename over the previous file, fsync the directory. A
// crash between any two of those steps leaves either the old complete file
// or the new one; the fault-injection tests kill the write between every
// pair of steps and prove it.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
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

// StrategyCorpus is the State.Strategy of coverage-guided campaigns, the one
// strategy whose units depend on earlier epochs' admitted programs — Load
// restores their unadmitted units only together with their programs.
const StrategyCorpus = "corpus"

// Steps of an atomic file write (Save, SaveBundle), in execution order —
// the coordinates KindCrashAtStep injection points address. StepDirSync is
// last: a crash after the rename but before the directory sync can still
// lose the rename on power fail, which is exactly the window the tests
// exercise.
const (
	StepTempWrite = iota // writing the temp file
	StepTempSync         // fsync of the temp file
	StepRename           // rename over the live file
	StepDirSync          // fsync of the directory
)

// ErrCorrupt reports a checkpoint that was damaged after it was written: a
// record other than the last fails its CRC, a record that passes it says
// something impossible, or the format tag is not this version's. Resume
// must treat it as absent-with-extreme-prejudice: the caller reports it and
// starts fresh rather than trusting any part of the file.
var ErrCorrupt = errors.New("checkpoint: corrupt checkpoint")

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
// program (in a loaded State; in the file it travels in a pending record).
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

// Save atomically writes st as dir's checkpoint — a fresh log holding the
// whole state — creating dir if needed. Campaigns append to a Log instead;
// this is for tests and benchmarks that have a State in hand. inj (nil in
// production) lets the fault-injection tests kill the write between steps
// and flip file bytes after the record CRCs are computed.
func Save(dir string, st *State, inj *faultinject.Injector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data, err := encodeState(st)
	if err != nil {
		return err
	}
	// Injected corruption happens after the CRCs so the file lands on disk
	// exactly as bit rot or a torn sector would leave it.
	inj.MutateBytes(data)
	return writeAtomic(dir, FileName, data, inj)
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
	syncDirectory(dir)
	return nil
}

// syncDirectory fsyncs dir, making a file creation or rename inside it
// durable. Best-effort: some filesystems reject directory fsync.
func syncDirectory(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// coverageFromWords rebuilds a coverage bitmap from checkpointed words.
func coverageFromWords(words []uint64) *uarch.Coverage {
	c := uarch.NewCoverage()
	c.LoadWords(words)
	return c
}

// Load reads dir's checkpoint and replays its records into a State, units
// in (instance, program) order. A missing file, or one that ends before its
// first whole record, returns an error satisfying errors.Is(err,
// os.ErrNotExist) — "no checkpoint yet" is the caller's fresh-start path. A
// torn last record is dropped; a damaged file returns an error wrapping
// ErrCorrupt.
func Load(dir string) (*State, error) {
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, _, err := replay(raw)
	return st, err
}
