// Package contract implements leakage contracts and the leakage model of
// AMuLeT-Go. A contract (Guarnieri et al.) specifies, per instruction, an
// observation clause (what an attacker is expected to learn) and an
// execution clause (which speculative paths are expected to execute). The
// leakage model executes a test case on the functional emulator (package
// emu) and records the contract trace; the fuzzer compares contract traces
// against micro-architectural traces from the simulator to detect contract
// violations (Definition 2.1 in the paper).
package contract

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// ObsKind classifies one contract-trace observation.
type ObsKind uint8

// Observation kinds.
const (
	ObsPC        ObsKind = iota // program counter of an executed instruction
	ObsLoadAddr                 // address of a load
	ObsStoreAddr                // address of a store
	ObsLoadVal                  // value returned by a load (ARCH-SEQ)
	ObsInitReg                  // initial register value (ARCH-SEQ)
)

var obsKindNames = [...]string{"PC", "LD", "ST", "VAL", "REG"}

// String returns a short tag for the observation kind.
func (k ObsKind) String() string {
	if int(k) < len(obsKindNames) {
		return obsKindNames[k]
	}
	return fmt.Sprintf("OBS(%d)", uint8(k))
}

// Obs is a single ISA-level observation.
type Obs struct {
	Kind ObsKind
	V    uint64
}

// Trace is a contract trace: the ordered sequence of observations produced
// by executing a test case under a contract.
type Trace []Obs

// TracePool recycles contract trace buffers across test cases. One pool
// belongs to one goroutine (it lives in a fuzzer workspace, which one engine
// worker owns); it is not safe for concurrent use. Get
// hands out an emptied recycled buffer (or nil, which Model.CollectInto
// treats as "allocate fresh"), and Put returns a buffer whose contents are
// dead.
type TracePool struct {
	free []Trace
}

// Get pops a recycled buffer, or returns nil when the pool is empty.
func (p *TracePool) Get() Trace {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	tr := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return tr[:0]
}

// Put returns a buffer to the pool. The caller must no longer read it.
// Putting nil (or into a nil pool) is a no-op.
func (p *TracePool) Put(tr Trace) {
	if p == nil || tr == nil {
		return
	}
	p.free = append(p.free, tr)
}

// Hash returns a 64-bit FNV-1a digest of the trace, used to partition inputs
// into contract-equivalence classes.
func (t Trace) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, o := range t {
		buf[0] = byte(o.Kind)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(o.V >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Equal reports whether two traces are identical observation by observation.
func (t Trace) Equal(u Trace) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the trace compactly for reports.
func (t Trace) String() string {
	var b strings.Builder
	for i, o := range t {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%#x", o.Kind, o.V)
	}
	return b.String()
}

// Contract describes a leakage contract: which information each instruction
// exposes (observation clause) and which speculative paths the model must
// also execute (execution clause).
type Contract struct {
	Name string

	// Observation clause.
	ObservePC      bool // expose the program counter sequence
	ObserveMemAddr bool // expose load/store addresses
	ObserveLoadVal bool // expose loaded values (ARCH-SEQ)
	// ObserveInitRegs exposes the initial register file. ARCH-SEQ sets it:
	// an attacker who may learn all architecturally accessed data knows the
	// register state, so register-borne secrets (e.g. SpecLFB's UV6 pattern,
	// where the leaked value sits in a register) are contract-allowed under
	// ARCH-SEQ and violations filtered accordingly — the filtering step the
	// paper applies to SpecLFB.
	ObserveInitRegs bool

	// Execution clause.
	SpecBranches bool // explore mispredicted conditional branches (CT-COND)
	SpecWindow   int  // max instructions per speculative excursion
	MaxNesting   int  // max nesting depth of speculative excursions
}

// The contracts used in the paper's evaluation (Table 1).
var (
	// CTSeq models a CPU with cache side channels and no speculation:
	// PC and load/store addresses leak on architectural paths only.
	CTSeq = Contract{Name: "CT-SEQ", ObservePC: true, ObserveMemAddr: true}

	// CTCond additionally expects leakage on mispredicted conditional
	// branch paths (branch-prediction speculation is contract-allowed).
	CTCond = Contract{
		Name: "CT-COND", ObservePC: true, ObserveMemAddr: true,
		SpecBranches: true, SpecWindow: 64, MaxNesting: 2,
	}

	// ArchSeq exposes, on architectural paths, the PC, load/store addresses
	// and all loaded values. It captures STT's non-interference guarantee:
	// anything derived from architecturally loaded values may leak.
	ArchSeq = Contract{
		Name: "ARCH-SEQ", ObservePC: true, ObserveMemAddr: true,
		ObserveLoadVal: true, ObserveInitRegs: true,
	}
)

// ByName returns the contract with the given name.
func ByName(name string) (Contract, error) {
	switch name {
	case CTSeq.Name:
		return CTSeq, nil
	case CTCond.Name:
		return CTCond, nil
	case ArchSeq.Name:
		return ArchSeq, nil
	}
	return Contract{}, fmt.Errorf("contract: unknown contract %q", name)
}
