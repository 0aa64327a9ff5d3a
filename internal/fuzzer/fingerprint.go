package fuzzer

import (
	"fmt"
	"hash/fnv"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// ViolationFingerprint digests a violation set — defense, program index,
// contract-trace hash, and the exact bytes of both violating inputs (decoded
// and their dense sandbox content written out here on demand: violations
// are rare) — in the order given. Identical fingerprints mean identical
// violation sets bit for bit. Feed it the aggregation-ordered set
// (CampaignResult.Violations) and the value is the campaign's determinism
// fingerprint: the quantity the golden-pinning tests compare across worker
// counts, perf knobs, and checkpoint/resume cycles, and what `amulet`
// prints so CI can diff an interrupted-and-resumed campaign against an
// uninterrupted one.
func ViolationFingerprint(vs []*Violation) uint64 {
	h := fnv.New64a()
	var in isa.Input
	for _, v := range vs {
		fmt.Fprintf(h, "%s|%d|%x|", v.Defense, v.ProgramIndex, v.CTrace.Hash())
		for _, enc := range [...][]byte{v.InputA, v.InputB} {
			if err := in.UnmarshalBinary(enc); err != nil {
				// Unreachable for a recorded violation, whose inputs were
				// encoded or validated on their way in; the digest stays
				// total.
				h.Write(enc)
				continue
			}
			for _, r := range in.Regs {
				fmt.Fprintf(h, "%x,", r)
			}
			h.Write(in.Mem.Dense())
		}
	}
	return h.Sum64()
}
