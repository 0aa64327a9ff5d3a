package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// testState builds a state with every field populated: a violating unit
// result (program, inputs, contract trace), coverage words, corpus entries.
func testState(t testing.TB) *State {
	t.Helper()
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 42
	g := generator.New(gcfg)
	prog := g.Program()
	inA, inB, _ := fuzzer.PackInputs(nil, g.Input(), g.Input())

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
			{Inst: 1, Prog: 5, RNGDraws: 333, Result: EncodeResult(&fuzzer.Result{TestCases: 30}), GenSrc: EncodeProg(g.Program())},
		},
		Corpus:   []CorpusRec{{Src: EncodeProg(prog), NewBits: 4, Violating: true}},
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
	// Inputs come back as sparse as the generator built them: the same
	// canonical bytes.
	if !sameState(got, st) {
		t.Errorf("round-trip mismatch:\ngot  %s\nwant %s", describe(got), describe(st))
	}

	// The violation must decode back to the live form, traces nil.
	v := got.Units[0].Result.Decode().Violations[0]
	want := st.Units[0].Result.Violations[0]
	if v.TraceA != nil || v.TraceB != nil {
		t.Error("decoded violation carries µarch traces; checkpoints must drop them")
	}
	if v.Defense != want.Defense || v.ProgramIndex != want.ProgramIndex ||
		!bytes.Equal(v.InputA, want.InputA) || !bytes.Equal(v.InputB, want.InputB) ||
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
		"tag without its \\n": append([]byte(magic[:len(magic)-1]+" "), whole[len(magic):]...),
	} {
		if _, err := load(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadRefusesVersion3: a log of the JSON-payload format is refused by
// its tag, and the error names it — there is no converter; the campaign
// starts over.
func TestLoadRefusesVersion3(t *testing.T) {
	dir := t.TempDir()
	v3 := "AMULETCKPT3\nHc\x00\x00\x00W\vt\x95{\"ConfigFP\":7}"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "AMULETCKPT3") {
		t.Errorf("version 3 log: Load err = %v, want ErrCorrupt naming the tag", err)
	}
}

// TestLoadRefusesVersion4: a log whose source programs are their
// frontend's JSON is refused by its tag, though every record after the tag
// is framed as today's are, and the error names the tag.
func TestLoadRefusesVersion4(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, testState(t), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v4 := append([]byte("AMULETCKPT4\n"), raw[len(magic):]...)
	if err := os.WriteFile(path, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "AMULETCKPT4") {
		t.Errorf("version 4 log: Load err = %v, want ErrCorrupt naming the tag", err)
	}
}

// TestLoadRejectsMalformedInput crafts logs whose records are intact — kind,
// length and CRC all agree — but whose violation carries an input that does
// not decode, or one of an impossible geometry, or of one other than its
// record's sandbox. Before inputs validated themselves at decode, these
// loaded fine and panicked ("image size mismatch") once analysis replayed
// the violation; violations now hold inputs in their binary form, and the
// read still checks them.
func TestLoadRejectsMalformedInput(t *testing.T) {
	pages := func(n int) []byte {
		enc, _ := isa.NewInput(isa.Sandbox{Pages: n}).AppendBinary(nil)
		return enc
	}
	written := isa.NewInput(isa.Sandbox{Pages: 1})
	written.Mem.Write(isa.DataBase+8, 8, 7)
	good, _ := written.AppendBinary(nil)
	for _, tc := range []struct {
		name  string
		input []byte
	}{
		{"no pages", pages(0)},
		{"three pages", pages(3)},
		{"two pages in a one-page record", pages(2)},
		{"512 pages in a one-page record", pages(512)},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"empty page", append(append([]byte(nil), good[:len(good)-17]...), 0)},
	} {
		st := testState(t)
		u := st.Units[0]
		u.Result.Violations = append([]ViolationRec(nil), u.Result.Violations...)
		u.Result.Violations[0].InputB = tc.input

		buf, start := beginFrame([]byte(magic))
		buf, err := endFrame(st.header().appendBinary(buf), start, RecHeader)
		if err != nil {
			t.Fatal(err)
		}
		buf, start = beginFrame(buf)
		if buf, err = u.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
		if buf, err = endFrame(buf, start, RecUnit); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), buf, 0o644); err != nil {
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
