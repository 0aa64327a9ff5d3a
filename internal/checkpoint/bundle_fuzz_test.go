package checkpoint

import (
	"reflect"
	"testing"
)

// FuzzLoadBundle feeds arbitrary bytes to the bundle decoder: a repro
// bundle may be copied in from another machine, and engine.ReplayUnit acts
// on what it says. A decode succeeds or fails without panicking; a bundle
// that decodes re-encodes, as SaveBundle writes it, to bytes that decode to
// the same bundle.
func FuzzLoadBundle(f *testing.F) {
	data, err := encodeBundle(&Bundle{ConfigFP: 0xfeed, Defense: "stt", Contract: "CT-COND", Frontend: "toy",
		Seed: 99, Inst: 1, Prog: 17, Kind: BundlePanic, Value: "boom", Stack: "goroutine 1 [running]:\n..."})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	if data, err = encodeBundle(&Bundle{ConfigFP: 0xfeed, Defense: "baseline", Contract: "CT-SEQ", Frontend: "toy",
		Seed: 5, Inst: 0, Prog: 10, Kind: BundleLost, Value: "lost 4 workers"}); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"Kind":"timeout","Inst":-1}`))
	f.Add([]byte(`{"Kind":"exploded"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		again, err := encodeBundle(b)
		if err != nil {
			t.Fatalf("a decoded bundle does not encode: %v", err)
		}
		back, err := DecodeBundle(again)
		if err != nil || !reflect.DeepEqual(back, b) {
			t.Fatalf("bundle changed across encode and decode: %+v, %v; want %+v", back, err, b)
		}
	})
}
