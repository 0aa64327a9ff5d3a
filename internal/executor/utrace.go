// Package executor generates micro-architectural traces from the simulator:
// it owns a core with a defense attached, runs test cases on it, extracts
// µarch traces in the formats the paper evaluates (Table 5), and implements
// the Naive (restart per input) and Opt (restart per program) execution
// strategies whose cost difference the paper's Tables 2 and 3 quantify.
package executor

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TraceFormat selects what micro-architectural state the trace exposes,
// i.e. the attacker's observational power.
type TraceFormat int

// Trace formats (paper §3.2 C1 and Table 5).
const (
	// FormatL1DTLB is the default: the final L1D-cache and D-TLB tag state,
	// modelling a realistic same-core attacker probing memory-system side
	// channels.
	FormatL1DTLB TraceFormat = iota
	// FormatL1DTLBL1I additionally exposes the L1 instruction cache
	// (used to confirm InvisiSpec KV1 and CleanupSpec's unXpec KV2).
	FormatL1DTLBL1I
	// FormatBPState exposes the final branch-predictor state.
	FormatBPState
	// FormatMemOrder exposes the ordered list of all memory accesses
	// (PC and address), an attacker physically probing the cache bus.
	FormatMemOrder
	// FormatBranchOrder exposes the ordered list of branch predictions.
	FormatBranchOrder
)

var traceFormatNames = [...]string{
	"L1D+TLB", "L1D+TLB+L1I", "BP state", "Memory access order", "Branch prediction order",
}

// String returns the format's name as used in the paper's Table 5.
func (f TraceFormat) String() string {
	if int(f) < len(traceFormatNames) && f >= 0 {
		return traceFormatNames[f]
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// UTrace is one micro-architectural trace. Only the sections selected by
// the trace format are populated.
type UTrace struct {
	Format TraceFormat

	// Cache sections are deltas from the content the prime established
	// (mem.CacheDelta): only the sets the test case changed are stored.
	// AppendLines expands one to the valid line addresses in the
	// snapshot's canonical set-major order (addresses sorted within each
	// set, not globally — see mem.Cache.SnapshotInto). The TLB section is
	// sorted.
	L1D mem.CacheDelta
	TLB []uint64 // sorted D-TLB page numbers
	L1I mem.CacheDelta

	BPDigest uint64 // branch-predictor state digest

	MemOrder    []uarch.AccessRec
	BranchOrder []uarch.BranchRec

	EndCycle uint64 // not part of equality; kept for analysis
}

// reset clears the trace for reuse, keeping the slice capacities.
func (t *UTrace) reset() {
	t.Format = 0
	t.L1D.Reset()
	t.TLB = t.TLB[:0]
	t.L1I.Reset()
	t.BPDigest = 0
	t.MemOrder = t.MemOrder[:0]
	t.BranchOrder = t.BranchOrder[:0]
	t.EndCycle = 0
}

// Clone returns a deep copy whose sections are sized to their content (the
// cache sections' immutable bases are shared). A trace that outlives its
// test case, such as a violation's, is kept as a clone so it does not pin a
// recycled trace's buffers, which are grown to a whole cache's capacity.
func (t *UTrace) Clone() *UTrace {
	return &UTrace{
		Format: t.Format, BPDigest: t.BPDigest, EndCycle: t.EndCycle,
		L1D: t.L1D.Clone(), TLB: slices.Clone(t.TLB), L1I: t.L1I.Clone(),
		MemOrder: slices.Clone(t.MemOrder), BranchOrder: slices.Clone(t.BranchOrder),
	}
}

// Equal reports whether two traces expose identical attacker observations.
func (t *UTrace) Equal(u *UTrace) bool {
	if t.Format != u.Format || t.BPDigest != u.BPDigest {
		return false
	}
	if !t.L1D.Equal(&u.L1D) || !eqU64(t.TLB, u.TLB) || !t.L1I.Equal(&u.L1I) {
		return false
	}
	if len(t.MemOrder) != len(u.MemOrder) || len(t.BranchOrder) != len(u.BranchOrder) {
		return false
	}
	for i := range t.MemOrder {
		if t.MemOrder[i] != u.MemOrder[i] {
			return false
		}
	}
	for i := range t.BranchOrder {
		if t.BranchOrder[i] != u.BranchOrder[i] {
			return false
		}
	}
	return true
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff renders a human-readable comparison of two traces, in the style of
// the paper's violation figures (addresses present in one state and absent
// in the other).
func (t *UTrace) Diff(u *UTrace) string {
	var b strings.Builder
	diffSet := func(name string, a, c []uint64) {
		onlyA, onlyC := setDiff(a, c)
		if len(onlyA) == 0 && len(onlyC) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", name)
		if len(onlyA) > 0 {
			fmt.Fprintf(&b, "  only in A: %s\n", hexList(onlyA))
		}
		if len(onlyC) > 0 {
			fmt.Fprintf(&b, "  only in B: %s\n", hexList(onlyC))
		}
	}
	diffSet("L1D-cache tags", t.L1D.AppendLines(nil), u.L1D.AppendLines(nil))
	diffSet("D-TLB pages", t.TLB, u.TLB)
	diffSet("L1I-cache tags", t.L1I.AppendLines(nil), u.L1I.AppendLines(nil))
	if t.BPDigest != u.BPDigest {
		fmt.Fprintf(&b, "BP state: %#x vs %#x\n", t.BPDigest, u.BPDigest)
	}
	if len(t.MemOrder) > 0 || len(u.MemOrder) > 0 {
		diffOrder(&b, "memory access order", len(t.MemOrder), len(u.MemOrder), func(i int) (string, string) {
			var x, y string
			if i < len(t.MemOrder) {
				x = fmt.Sprintf("%#x->%#x", t.MemOrder[i].PC, t.MemOrder[i].Addr)
			}
			if i < len(u.MemOrder) {
				y = fmt.Sprintf("%#x->%#x", u.MemOrder[i].PC, u.MemOrder[i].Addr)
			}
			return x, y
		})
	}
	if len(t.BranchOrder) > 0 || len(u.BranchOrder) > 0 {
		diffOrder(&b, "branch prediction order", len(t.BranchOrder), len(u.BranchOrder), func(i int) (string, string) {
			var x, y string
			if i < len(t.BranchOrder) {
				x = fmt.Sprintf("%#x:%v", t.BranchOrder[i].PC, t.BranchOrder[i].PredTaken)
			}
			if i < len(u.BranchOrder) {
				y = fmt.Sprintf("%#x:%v", u.BranchOrder[i].PC, u.BranchOrder[i].PredTaken)
			}
			return x, y
		})
	}
	if b.Len() == 0 {
		return "traces identical\n"
	}
	return b.String()
}

func diffOrder(b *strings.Builder, name string, la, lb int, at func(int) (string, string)) {
	n := la
	if lb > n {
		n = lb
	}
	wrote := false
	for i := 0; i < n; i++ {
		x, y := at(i)
		if x == y {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "%s:\n", name)
			wrote = true
		}
		fmt.Fprintf(b, "  [%d] A=%s B=%s\n", i, x, y)
	}
}

// setDiff returns the elements only in a and only in b via a sorted merge
// walk. Inputs that are not globally sorted — cache sections arrive in the
// snapshot's canonical set-major order, and tests hand-build traces — are
// sorted into scratch copies first; this only runs when rendering a
// violation diff, never on the comparison hot path.
func setDiff(a, b []uint64) (onlyA, onlyB []uint64) {
	a = sortedOrCopy(a)
	b = sortedOrCopy(b)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			// Skip duplicate runs on both sides so multiset differences
			// degrade to the same set semantics the map version had.
			v := a[i]
			for i < len(a) && a[i] == v {
				i++
			}
			for j < len(b) && b[j] == v {
				j++
			}
		case a[i] < b[j]:
			onlyA = appendUnique(onlyA, a[i])
			i++
		default:
			onlyB = appendUnique(onlyB, b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		onlyA = appendUnique(onlyA, a[i])
	}
	for ; j < len(b); j++ {
		onlyB = appendUnique(onlyB, b[j])
	}
	return onlyA, onlyB
}

func sortedOrCopy(vs []uint64) []uint64 {
	if slices.IsSorted(vs) {
		return vs
	}
	c := append([]uint64(nil), vs...)
	slices.Sort(c)
	return c
}

func appendUnique(out []uint64, v uint64) []uint64 {
	if n := len(out); n > 0 && out[n-1] == v {
		return out
	}
	return append(out, v)
}

func hexList(vs []uint64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("0x")
		b.WriteString(strconv.FormatUint(v, 16))
	}
	return b.String()
}
