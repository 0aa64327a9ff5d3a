package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// mustProgRec encodes a source program into its checkpoint record form.
func mustProgRec(t testing.TB, src isa.SourceProgram) *ProgRec {
	t.Helper()
	rec, err := EncodeProg(src)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// testState builds a state with every field populated: a violating unit
// result (program, inputs, contract trace), coverage words, corpus entries.
func testState(t testing.TB) *State {
	t.Helper()
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 42
	g := generator.New(gcfg)
	prog := g.Program()
	inA, inB := g.Input(), g.Input()

	cov := uarch.NewCoverage()
	words := make([]uint64, len(cov.Words()))
	words[0], words[3] = 0x5, 1<<63|2
	cov.LoadWords(words)

	res := &fuzzer.Result{
		TestCases:      30,
		Programs:       1,
		Elapsed:        3 * time.Millisecond,
		ValidationRuns: 2,
		GenTime:        time.Millisecond,
		Coverage:       cov,
		Violations: []*fuzzer.Violation{{
			Defense:      "baseline",
			Contract:     "CT-SEQ",
			Program:      prog,
			Sandbox:      g.Sandbox(),
			InputA:       inA,
			InputB:       inB,
			CTrace:       contract.Trace{{V: 0x40}, {V: 0x48}},
			ProgramIndex: 7,
			DetectedAt:   2 * time.Millisecond,
		}},
	}
	res.Metrics.TestCases = 30

	return &State{
		ConfigFP:   0xdeadbeefcafe,
		Seed:       1,
		Instances:  2,
		Programs:   10,
		Epochs:     2,
		Strategy:   "corpus",
		EpochsDone: 1,
		Units: []UnitRec{
			{Inst: 0, Prog: 7, RNGDraws: 912, Result: EncodeResult(res)},
			{Inst: 1, Prog: 5, RNGDraws: 333, Result: EncodeResult(&fuzzer.Result{TestCases: 30}), GenSrc: mustProgRec(t, g.Program())},
		},
		Corpus:   []CorpusRec{{Src: mustProgRec(t, prog), NewBits: 4, Violating: true}},
		Coverage: words,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := testState(t)
	if err := Save(dir, st, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs decode to a different in-memory form (every page written out)
	// than the generator builds (a background fill), so states are compared
	// by content: their serialized form.
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("round-trip mismatch:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}

	// The violation must decode back to the live form, traces nil.
	v := got.Units[0].Result.Decode().Violations[0]
	want := st.Units[0].Result.Violations[0]
	if v.TraceA != nil || v.TraceB != nil {
		t.Error("decoded violation carries µarch traces; checkpoints must drop them")
	}
	if v.Defense != want.Defense || v.ProgramIndex != want.ProgramIndex ||
		v.InputA.Regs != want.InputA.Regs || !bytes.Equal(v.InputA.Mem.Dense(), want.InputA.Mem.Dense()) ||
		!reflect.DeepEqual(v.CTrace, want.CTrace) {
		t.Errorf("decoded violation differs from encoded:\ngot  %+v\nwant %+v", v, want)
	}

	// Coverage survives the words round-trip bit for bit.
	res := got.Units[0].Result.Decode()
	if !reflect.DeepEqual(res.Coverage.Words(), st.Coverage) {
		t.Error("coverage words changed across the round-trip")
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	_, err := Load(t.TempDir())
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
}

// TestSaveCrashMatrix kills Save's atomic write between every pair of
// steps and proves the invariant: whatever step the process dies at, the
// directory holds a complete, loadable checkpoint — the old one for
// crashes before the rename, the new one after. (Campaigns append to a Log
// instead; its matrix is TestLogCrashMatrix.)
func TestSaveCrashMatrix(t *testing.T) {
	old := testState(t)
	fresh := testState(t)
	fresh.EpochsDone = 2
	fresh.ConfigFP = old.ConfigFP

	steps := []struct {
		step    int
		wantNew bool
	}{
		{StepTempWrite, false},
		{StepTempSync, false},
		{StepRename, false},
		{StepDirSync, true}, // rename already durable in-process
	}
	for _, tc := range steps {
		dir := t.TempDir()
		if err := Save(dir, old, nil); err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New()
		inj.Arm(faultinject.KindCrashAtStep, tc.step, 0)
		if err := Save(dir, fresh, inj); !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("step %d: Save err = %v, want ErrInjectedCrash", tc.step, err)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("step %d: checkpoint unloadable after crash: %v", tc.step, err)
		}
		want := old
		if tc.wantNew {
			want = fresh
		}
		if got.EpochsDone != want.EpochsDone {
			t.Errorf("step %d: loaded EpochsDone=%d, want %d (crash left a torn state?)",
				tc.step, got.EpochsDone, want.EpochsDone)
		}
	}
}

// TestSaveCrashWithNoPriorCheckpoint: dying before the rename of the very
// first Save must leave "no checkpoint" (the fresh-start path), not a
// partial file.
func TestSaveCrashWithNoPriorCheckpoint(t *testing.T) {
	for _, step := range []int{StepTempWrite, StepTempSync, StepRename} {
		dir := t.TempDir()
		inj := faultinject.New()
		inj.Arm(faultinject.KindCrashAtStep, step, 0)
		if err := Save(dir, testState(t), inj); !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Fatalf("step %d: Save err = %v", step, err)
		}
		if _, err := Load(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("step %d: Load err = %v, want os.ErrNotExist", step, err)
		}
	}
}

// recordEnds returns the offset at which each whole record of a log ends —
// the format tag counts as ending where the header record does.
func recordEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	var ends []int
	if _, err := Walk(raw, func(_ byte, _ []byte, end int) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ends
}

// TestLoadRejectsCorruption damages a log after it was written. A flipped
// bit in the header or in a middle record is corruption; the same flip in
// the last record is indistinguishable from a torn append, and drops just
// that record. A foreign or older format tag is refused outright.
func TestLoadRejectsCorruption(t *testing.T) {
	st := testState(t)
	whole, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, whole) // header, unit, unit, commit, pending
	if len(ends) != 5 {
		t.Fatalf("test state encodes to %d records, want 5", len(ends))
	}
	load := func(raw []byte) (*State, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(dir)
	}
	flip := func(at int) []byte {
		raw := append([]byte(nil), whole...)
		raw[at] ^= 0x08
		return raw
	}

	for name, at := range map[string]int{
		"format tag":              3,
		"header kind":             len(magic),
		"header payload":          len(magic) + frameLen + 4,
		"middle record's payload": ends[0] + frameLen + 20,
		"middle record's CRC":     ends[1] + 6,
		"commit record's payload": ends[2] + frameLen + 2,
	} {
		if _, err := load(flip(at)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip in the %s: Load err = %v, want ErrCorrupt", name, err)
		}
	}

	// The last record (the pending programs): dropped, everything before it
	// stands — unit (1,5) comes back without its program.
	got, err := load(flip(ends[3] + frameLen + 8))
	if err != nil {
		t.Fatalf("bit flip in the last record: %v, want the tail dropped", err)
	}
	if len(got.Units) != 2 || got.EpochsDone != 1 || got.Units[1].GenSrc != nil {
		t.Errorf("bit flip in the last record: loaded %d units, EpochsDone %d, program %v; want the state before the record",
			len(got.Units), got.EpochsDone, got.Units[1].GenSrc)
	}

	// The faultinject path: Save flips the byte after the CRCs are computed.
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindFlipByte, ends[0]+frameLen+20, 3)
	if err := Save(dir, st, inj); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("injected flip in a middle record: Load err = %v, want ErrCorrupt", err)
	}

	// A file cut short is a log with a torn tail — an earlier moment of the
	// same campaign. Here that is before the first commit, where a
	// corpus-strategy unit does not stand without its program.
	got, err = load(whole[:ends[1]+(ends[2]-ends[1])/2])
	if err != nil || len(got.Units) != 0 || got.EpochsDone != 0 {
		t.Errorf("file cut inside its third record: %+v, %v; want the bare header", got, err)
	}

	for name, raw := range map[string][]byte{
		"garbage":             []byte("not a checkpoint\n{}"),
		"short garbage":       []byte("nope"),
		"version 2 file":      []byte(magic[:len(magic)-2] + "2 00000000deadbeef 2\n{}"),
		"tag without its \\n": append([]byte("AMULETCKPT3 "), whole[len(magic):]...),
	} {
		if _, err := load(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadRejectsMalformedInput crafts logs whose records are intact — kind,
// length and CRC all agree — but whose violation carries input memory of an
// impossible size, or of a size other than its record's sandbox. Before
// inputs validated themselves at decode, these loaded fine and panicked
// ("image size mismatch") once analysis replayed the violation.
func TestLoadRejectsMalformedInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes int
	}{
		{"not a page multiple", 100},
		{"three pages", 3 * isa.PageSize},
		{"two pages in a one-page record", 2 * isa.PageSize},
	} {
		st := testState(t)
		var unit map[string]any
		payload, err := json.Marshal(&st.Units[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(payload, &unit); err != nil {
			t.Fatal(err)
		}
		viol := unit["Result"].(map[string]any)["Violations"].([]any)[0].(map[string]any)
		viol["InputB"].(map[string]any)["Mem"] = make([]byte, tc.bytes)

		buf := bytes.NewBufferString(magic)
		if err := appendFrame(buf, RecHeader, st.header()); err != nil {
			t.Fatal(err)
		}
		if err := appendFrame(buf, RecUnit, unit); err != nil {
			t.Fatal(err)
		}
		if err := appendFrame(buf, RecCommit, &commitRec{EpochsDone: 1}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{
		ConfigFP: 0xfeed,
		Defense:  "stt",
		Contract: "CT-COND",
		Seed:     99,
		Inst:     1,
		Prog:     17,
		Kind:     BundlePanic,
		Value:    "faultinject: injected panic in unit (1,17)",
		Stack:    "goroutine 1 [running]:\n...",
	}
	path, err := SaveBundle(dir, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := BundlePath(dir, 1, 17, BundlePanic); path != want {
		t.Errorf("bundle path %q, want %q", path, want)
	}
	got, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("bundle round-trip mismatch:\ngot  %+v\nwant %+v", got, b)
	}
}
