package checkpoint

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/executor"
)

// TestMetricsEncodeEveryField: the metrics of a result are listed field by
// field in the codec; a field added to executor.Metrics without it would be
// silently dropped from every checkpoint and submission. Each field gets a
// distinct value and must come back.
func TestMetricsEncodeEveryField(t *testing.T) {
	var m executor.Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000*i + 7))
		default:
			t.Fatalf("executor.Metrics.%s is a %s; extend the codec", v.Type().Field(i).Name, f.Kind())
		}
	}
	rec := ResultRec{Metrics: m, Elapsed: -time.Second}
	b, err := rec.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back ResultRec
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("metrics did not survive the codec:\ngot  %+v\nwant %+v", back.Metrics, m)
	}
}

// FuzzUnitRec feeds arbitrary bytes to the unit record decoder — the bytes
// of a checkpoint's U record and of every result a worker submits. A decode
// must succeed or fail without panicking, and must not allocate more than
// the bytes that are there can describe (a page costs 4 KB of memory and at
// least 18 bytes of record): no count or length is trusted before it is
// checked against what remains. Whatever decodes re-encodes to exactly the
// bytes it came from — the encoding is canonical — and ResultElapsed reads
// the decoded Elapsed.
func FuzzUnitRec(f *testing.F) {
	for _, u := range testState(f).Units {
		b, err := u.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var u UnitRec
		err := u.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+300*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		again, err := u.AppendBinary(nil)
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the bytes:\nin  %x\nout %x", data, again)
		}
		if _, _, _, result, _ := SplitUnit(data); ResultElapsed(result) != u.Result.Elapsed {
			t.Fatalf("ResultElapsed reads %v, the decoded result has %v", ResultElapsed(result), u.Result.Elapsed)
		}
	})
}
