package wasm_test

import (
	"bytes"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/isa/wasm"
)

// FuzzDecodeProgram feeds arbitrary bytes to the program decoders of both
// frontends — the bytes a checkpoint log's corpus and pending records carry
// back into a resumed campaign. The first byte picks the frontend (even:
// toy, odd: wasm), the rest is the encoding. A decode must return a program
// or an error, never panic; a decoded program must re-encode to exactly the
// bytes it was decoded from (the binary forms are canonical), lower to a
// valid µop program, and run through the leakage model (CT-COND, so
// speculative excursions run too).
//
// The committed seeds (testdata/fuzz/FuzzDecodeProgram), for each frontend,
// are generator output, its encoding cut in half, a program ten times the
// generator's length, and out-of-range field values.
func FuzzDecodeProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fe := isa.Toy
		if data[0]&1 == 1 {
			fe = wasm.Frontend
		}
		src, err := fe.DecodeProgram(data[1:])
		if err != nil {
			return
		}
		if enc := fe.EncodeProgram(nil, src); !bytes.Equal(enc, data[1:]) {
			t.Fatalf("a decoded program re-encodes to other bytes:\n got  %x\n from %x", enc, data[1:])
		}
		prog := fe.Lower(src)
		if err := prog.Validate(); err != nil {
			t.Fatalf("lowering produced an invalid µop program: %v", err)
		}
		sb := isa.Sandbox{Pages: 1}
		contract.NewModel(contract.CTCond, prog, sb).Collect(isa.NewInput(sb))
	})
}
