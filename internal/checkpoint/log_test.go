package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sith-lab/amulet-go/internal/faultinject"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// stateJSON renders a state by content, the way TestSaveLoadRoundTrip
// compares them. A nil state (no checkpoint yet) renders as "null".
func stateJSON(t testing.TB, st *State) string {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// loadOrNil loads dir's checkpoint; "no checkpoint yet" is a nil state.
func loadOrNil(t testing.TB, dir string) *State {
	t.Helper()
	st, err := Load(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

// logScript is a small campaign written the way the engine writes one: the
// header (Create), then one step per record. The first unit is testState's
// violating one, so a record of realistic size is in the mix.
func logScript(t testing.TB, strategy string) (id *State, steps []func(*Log) error) {
	t.Helper()
	ts := testState(t)
	id = &State{ConfigFP: 7, Seed: 1, Instances: 2, Programs: 10, Epochs: 2, Strategy: strategy, Frontend: "toy"}
	small := func(inst, prog int) *UnitRec {
		return &UnitRec{Inst: inst, Prog: prog, RNGDraws: uint64(100*inst + prog),
			Result: EncodeResult(&fuzzer.Result{TestCases: 30, Programs: 1})}
	}
	big := ts.Units[0]
	big.Inst, big.Prog = 0, 1
	steps = []func(*Log) error{
		func(l *Log) error { return l.AppendUnit(&big) },
		func(l *Log) error { return l.AppendUnit(small(1, 2)) },
		func(l *Log) error {
			if err := l.AppendCommit(1, ts.Corpus, ts.Coverage); err != nil {
				return err
			}
			return l.Sync()
		},
		func(l *Log) error { return l.AppendUnit(small(0, 6)) },
		func(l *Log) error { return l.AppendUnit(small(1, 7)) },
	}
	return id, steps
}

// runScript creates the log and runs the steps, stopping at the first error.
func runScript(dir string, id *State, steps []func(*Log) error, inj *faultinject.Injector) error {
	l, err := Create(dir, id, inj)
	if err != nil {
		return err
	}
	defer l.Close()
	for _, step := range steps {
		if err := step(l); err != nil {
			return err
		}
	}
	return nil
}

// statesAfter returns the state on disk after the header and after each
// step of a clean run: statesAfter[0] is the bare header.
func statesAfter(t *testing.T, id *State, steps []func(*Log) error) []*State {
	t.Helper()
	var out []*State
	for n := 0; n <= len(steps); n++ {
		dir := t.TempDir()
		if err := runScript(dir, id, steps[:n], nil); err != nil {
			t.Fatal(err)
		}
		out = append(out, loadOrNil(t, dir))
	}
	return out
}

// TestLogRoundTrip: a log written record by record loads to the state those
// records describe — units in (instance, program) order whatever order they
// were appended in, the corpus and coverage of the commit, EpochsDone.
func TestLogRoundTrip(t *testing.T) {
	id, steps := logScript(t, "random")
	dir := t.TempDir()
	if err := runScript(dir, id, steps, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigFP != id.ConfigFP || got.Strategy != "random" || got.Frontend != "toy" || got.EpochsDone != 1 {
		t.Errorf("identity/progress did not survive: %+v", got)
	}
	var order [][2]int
	for _, u := range got.Units {
		order = append(order, [2]int{u.Inst, u.Prog})
	}
	if want := [][2]int{{0, 1}, {0, 6}, {1, 2}, {1, 7}}; !reflect.DeepEqual(order, want) {
		t.Errorf("units %v, want %v", order, want)
	}
	ts := testState(t)
	if len(got.Corpus) != len(ts.Corpus) || len(got.Coverage) != len(ts.Coverage) || got.Coverage[3] != ts.Coverage[3] {
		t.Errorf("commit content did not survive: %d corpus entries, %d coverage words", len(got.Corpus), len(got.Coverage))
	}
	if v := got.Units[0].Result.Decode().Violations; len(v) != 1 || v[0].ProgramIndex != 7 {
		t.Errorf("violating unit did not survive: %+v", v)
	}
}

// TestLogCrashMatrix kills an append at every prefix class — nothing
// written, inside the fixed part of the frame, inside the payload, whole
// but not yet fsynced — for the header, a unit record and a commit record.
// A record that did not reach the file whole must leave exactly the state
// before it (for the header: no checkpoint yet); one that did is applied,
// since a killed process loses nothing the kernel already has. After the
// kill the log must not touch the file again.
func TestLogCrashMatrix(t *testing.T) {
	id, steps := logScript(t, "random")
	want := statesAfter(t, id, steps)
	const whole = 1 << 30
	for _, tc := range []struct {
		name   string
		append int // 1 = header; step k is append k+2
		keeps  []int
	}{
		{"header", 1, []int{0, 5, len(magic) + 4, len(magic) + frameLen + 3, whole}},
		{"unit", 2, []int{0, 4, frameLen + 100, whole}},
		{"commit", 4, []int{0, 4, frameLen + 100, whole}},
	} {
		for _, keep := range tc.keeps {
			dir := t.TempDir()
			inj := faultinject.New()
			inj.Arm(faultinject.KindCrashInAppend, tc.append, keep)
			if err := runScript(dir, id, steps, inj); !errors.Is(err, faultinject.ErrInjectedCrash) {
				t.Fatalf("%s, %d bytes: err = %v, want ErrInjectedCrash", tc.name, keep, err)
			}
			var before *State // the header's "before" is no checkpoint at all
			if tc.append > 1 {
				before = want[tc.append-2]
			}
			expect := before
			if keep == whole {
				expect = want[tc.append-1]
			}
			if got := loadOrNil(t, dir); stateJSON(t, got) != stateJSON(t, expect) {
				t.Errorf("%s killed after %d bytes: loaded\n  %.200s\nwant\n  %.200s", tc.name, keep, stateJSON(t, got), stateJSON(t, expect))
			}
		}
	}

	// A dead log stays dead: nothing after the kill reaches the file.
	dir := t.TempDir()
	inj := faultinject.New()
	inj.Arm(faultinject.KindCrashInAppend, 2, 4)
	l, err := Create(dir, id, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, step := range steps {
		if err := step(l); !errors.Is(err, faultinject.ErrInjectedCrash) {
			t.Errorf("step %d after the kill: err = %v, want ErrInjectedCrash", i, err)
		}
	}
	if got := loadOrNil(t, dir); stateJSON(t, got) != stateJSON(t, want[0]) {
		t.Errorf("appends after the kill changed the file: %.200s", stateJSON(t, got))
	}
}

// TestLogEveryPrefixLoads is the power-loss view of the same guarantee: cut
// the file at any byte — whatever part of the unsynced tail made it to the
// platter — and it loads to the state as of the last whole record before
// the cut, never a mixture, with the append offset at that record's end.
func TestLogEveryPrefixLoads(t *testing.T) {
	id, steps := logScript(t, "random")
	dir := t.TempDir()
	if err := runScript(dir, id, steps, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, raw)
	want := statesAfter(t, id, steps)
	if len(ends) != len(want) {
		t.Fatalf("%d records, %d states", len(ends), len(want))
	}
	wantJSON := make([]string, len(want))
	for i, st := range want {
		wantJSON[i] = stateJSON(t, st)
	}
	for cut := 0; cut <= len(raw); cut++ {
		// Every byte near a record boundary, every 13th inside a payload.
		near := false
		for _, e := range ends {
			near = near || (cut > e-16 && cut < e+16)
		}
		if !near && cut > 32 && cut%13 != 0 {
			continue
		}
		k := -1 // index of the last whole record before the cut
		for i, e := range ends {
			if e <= cut {
				k = i
			}
		}
		st, end, err := replay(raw[:cut])
		if k < 0 {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut at %d (inside the header): err = %v, want os.ErrNotExist", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if end != ends[k] {
			t.Fatalf("cut at %d: appending would resume at %d, want %d", cut, end, ends[k])
		}
		if got := stateJSON(t, st); got != wantJSON[k] {
			t.Fatalf("cut at %d: state is not the one after record %d", cut, k)
		}
	}
}

// TestLoadDropsUnadmittedTail: under the corpus strategy a unit of an epoch
// that has no commit record is worth nothing without its generated program.
// Killed mid-epoch, the log's tail holds such units; Load drops them, Resume
// truncates them away, and the re-run units are appended again without
// tripping the appears-twice check. A pending record (the interrupt path)
// keeps them.
func TestLoadDropsUnadmittedTail(t *testing.T) {
	id, steps := logScript(t, StrategyCorpus)
	dir := t.TempDir()
	if err := runScript(dir, id, steps, nil); err != nil {
		t.Fatal(err)
	}
	want := statesAfter(t, id, steps[:3])[3] // up to the commit
	if got := loadOrNil(t, dir); stateJSON(t, got) != stateJSON(t, want) {
		t.Fatalf("loaded %.300s\nwant the state as of the commit", stateJSON(t, got))
	}

	st, l, err := Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(st.Units) != 2 {
		t.Fatalf("resume restored %d units, want 2", len(st.Units))
	}
	for _, step := range steps[3:] { // the two units run again
		if err := step(l); err != nil {
			t.Fatal(err)
		}
	}
	prog := testState(t).Units[1].GenSrc
	if err := l.AppendPending([]PendingRec{{Inst: 0, Prog: 6, GenSrc: prog}, {Inst: 1, Prog: 7}}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("after resume and re-append: %v", err)
	}
	if len(got.Units) != 4 || got.Units[1].GenSrc == nil || got.Units[3].GenSrc != nil {
		t.Errorf("pending record did not keep the tail: %d units", len(got.Units))
	}

	// Once their epoch commits, the programs are history.
	if err := l.AppendCommit(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(dir); err != nil || got.EpochsDone != 2 || got.Units[1].GenSrc != nil {
		t.Errorf("after the second commit: %v, EpochsDone %d", err, got.EpochsDone)
	}
}

// TestFailedAppendRollsBack is the disk-full path at the log: a short or
// failed write is reported, the file is cut back to the last whole record,
// and the next append lands directly behind that record.
func TestFailedAppendRollsBack(t *testing.T) {
	id, steps := logScript(t, "random")
	for _, keep := range []int{0, 3, frameLen + 50} {
		dir := t.TempDir()
		path := filepath.Join(dir, FileName)
		inj := faultinject.New()
		inj.Arm(faultinject.KindFailAppend, 2, keep)
		l, err := Create(dir, id, inj)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := os.Stat(path)
		if err := steps[0](l); !errors.Is(err, faultinject.ErrInjectedWriteFailure) {
			t.Fatalf("keep %d: err = %v, want ErrInjectedWriteFailure", keep, err)
		}
		if after, _ := os.Stat(path); after.Size() != before.Size() {
			t.Errorf("keep %d: failed append left %d bytes behind", keep, after.Size()-before.Size())
		}
		for _, step := range steps[1:] {
			if err := step(l); err != nil {
				t.Fatalf("keep %d: append after the failure: %v", keep, err)
			}
		}
		l.Close()
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if len(got.Units) != 3 || got.EpochsDone != 1 {
			t.Errorf("keep %d: loaded %d units, EpochsDone %d; want the 3 units appended after the failure and the commit", keep, len(got.Units), got.EpochsDone)
		}
	}
}

// TestLoadRejectsImpossibleRecords: records that pass their CRC and say
// something no writer says.
func TestLoadRejectsImpossibleRecords(t *testing.T) {
	id, _ := logScript(t, "random")
	unit := func(inst, prog int) *UnitRec { return &UnitRec{Inst: inst, Prog: prog} }
	for name, recs := range map[string][]struct {
		kind byte
		v    any
	}{
		"unit twice":                 {{RecHeader, id.header()}, {RecUnit, unit(0, 1)}, {RecUnit, unit(0, 1)}},
		"unit out of bounds":         {{RecHeader, id.header()}, {RecUnit, unit(2, 0)}},
		"no header":                  {{RecUnit, unit(0, 1)}},
		"second header":              {{RecHeader, id.header()}, {RecHeader, id.header()}},
		"commit going back":          {{RecHeader, id.header()}, {RecCommit, &commitRec{EpochsDone: 2}}, {RecCommit, &commitRec{EpochsDone: 1}}},
		"commit past the last epoch": {{RecHeader, id.header()}, {RecCommit, &commitRec{EpochsDone: 3}}},
		"pending without its unit":   {{RecHeader, id.header()}, {RecPending, []PendingRec{{Inst: 0, Prog: 1}}}},
		"unknown kind":               {{RecHeader, id.header()}, {'X', unit(0, 1)}},
		"not JSON":                   {{RecHeader, id.header()}, {RecUnit, "a string"}},
		"no instances":               {{RecHeader, &headerRec{Programs: 4, Epochs: 1}}},
		"more epochs than programs":  {{RecHeader, &headerRec{Instances: 1, Programs: 4, Epochs: 5}}},
	} {
		buf := bytes.NewBufferString(magic)
		for _, r := range recs {
			if err := appendFrame(buf, r.kind, r.v); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := replay(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load as the contents of
// checkpoint.amulet. It must return a state or an error — never panic, and never allocate from a
// record's length field before checking it against the bytes that remain
// (the seed with a 2³²−1 length would take 4 GB). A state it does return
// must be stable: the offset appending would resume at lies inside the
// file, and the file cut there loads to the same state. The committed seeds
// run under plain `go test`.
func FuzzLoad(f *testing.F) {
	// Seeds are committed under testdata/fuzz/FuzzLoad: a valid three-record
	// log, the same with a torn tail, and a record claiming 2³²−1 bytes.
	f.Fuzz(func(t *testing.T, data []byte) {
		st, end, err := replay(data) // Load is os.ReadFile and this
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Load failed with neither ErrCorrupt nor os.ErrNotExist: %v", err)
			}
			return
		}
		if end > len(data) {
			t.Fatalf("append offset %d in a file of %d bytes", end, len(data))
		}
		again, end2, err := replay(data[:end])
		if err != nil || end2 != end || stateJSON(t, again) != stateJSON(t, st) {
			t.Fatalf("the file cut at its append offset loads differently: %v", err)
		}
	})
}
