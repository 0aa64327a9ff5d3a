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

	// Cache sections are in the snapshot's canonical set-major order
	// (addresses sorted within each set, not globally — see
	// mem.Cache.SnapshotInto); the TLB section is sorted.
	L1D []uint64 // valid L1D line addresses, canonical order
	TLB []uint64 // sorted D-TLB page numbers
	L1I []uint64 // valid L1I line addresses, canonical order

	BPDigest uint64 // branch-predictor state digest

	MemOrder    []uarch.AccessRec
	BranchOrder []uarch.BranchRec

	EndCycle uint64 // not part of equality; kept for analysis

	// hash memoizes Hash(): traces are extracted once and then compared
	// against every other trace of their contract-equivalence class, so the
	// digest is computed at most once per trace. reset() clears it.
	hash     uint64
	hashDone bool

	// l1dSum/tlbSum/l1iSum are the set-shaped sections' multiset digests
	// (Σ Mix64(word)) when sumsDone is set. The extractor fills them from
	// the structures' incrementally maintained content digests, so
	// computeHash skips re-mixing the section words; hand-built traces and
	// the executor's fullDigest oracle leave sumsDone unset and computeHash
	// derives identical sums by walking the slices.
	l1dSum, tlbSum, l1iSum uint64
	sumsDone               bool
}

// Hash returns a digest for fast grouping and hash-first comparison. The
// digest is computed once and cached; traces are immutable once extracted.
func (t *UTrace) Hash() uint64 {
	if !t.hashDone {
		t.hash = t.computeHash()
		t.hashDone = true
	}
	return t.hash
}

// computeHash digests the attacker-visible state. The set-shaped sections
// (L1D, TLB, L1I) enter as multiset sums of the splitmix64 finalizer —
// order-free, so the sum is a pure function of the section content and
// matches the per-set digests mem.Cache/mem.TLB maintain incrementally;
// when the extractor provided those sums, the section words are not walked
// at all. Lengths and the ordered sections chain the finalizer as before,
// with section lengths as separators so sections cannot alias each other.
func (t *UTrace) computeHash() uint64 {
	l1d, tlb, l1i := t.l1dSum, t.tlbSum, t.l1iSum
	if !t.sumsDone {
		l1d, tlb, l1i = sectionSum(t.L1D), sectionSum(t.TLB), sectionSum(t.L1I)
	}
	h := uarch.Mix64(uint64(t.Format) + 1)
	mix := func(v uint64) { h = uarch.Mix64(h ^ v) }
	mix(uint64(len(t.L1D)))
	mix(l1d)
	mix(uint64(len(t.TLB)))
	mix(tlb)
	mix(uint64(len(t.L1I)))
	mix(l1i)
	mix(t.BPDigest)
	mix(uint64(len(t.MemOrder)))
	for _, a := range t.MemOrder {
		mix(a.PC)
		v := a.Addr << 1
		if a.Store {
			v |= 1
		}
		mix(v)
	}
	mix(uint64(len(t.BranchOrder)))
	for _, b := range t.BranchOrder {
		mix(b.PC)
		v := b.Target << 1
		if b.PredTaken {
			v |= 1
		}
		mix(v)
	}
	return h
}

// sectionSum folds a section's words into the order-free multiset digest:
// the full-walk reference path, and the definition the incremental cache
// digests are cross-checked against.
func sectionSum(vs []uint64) uint64 {
	var s uint64
	for _, v := range vs {
		s += uarch.Mix64(v)
	}
	return s
}

// setSectionSums records the set-shaped sections' digests as provided by
// the memory structures' incremental tracking; Hash then skips the section
// walks. Callers must pass exactly sectionSum of each populated section
// (empty sections sum to 0).
func (t *UTrace) setSectionSums(l1d, tlb, l1i uint64) {
	t.l1dSum, t.tlbSum, t.l1iSum = l1d, tlb, l1i
	t.sumsDone = true
}

// reset clears the trace for reuse, keeping the slice capacities.
func (t *UTrace) reset() {
	t.Format = 0
	t.L1D = t.L1D[:0]
	t.TLB = t.TLB[:0]
	t.L1I = t.L1I[:0]
	t.BPDigest = 0
	t.MemOrder = t.MemOrder[:0]
	t.BranchOrder = t.BranchOrder[:0]
	t.EndCycle = 0
	t.hash = 0
	t.hashDone = false
	t.l1dSum, t.tlbSum, t.l1iSum = 0, 0, 0
	t.sumsDone = false
}

// Differs reports whether two traces expose different attacker
// observations, comparing digests first: unequal digests prove a
// difference without walking the traces, and equal digests fall back to
// the exact Equal walk so a hash collision can never hide a violation.
func (t *UTrace) Differs(u *UTrace) bool {
	if t.Hash() != u.Hash() {
		return true
	}
	return !t.Equal(u)
}

// Equal reports whether two traces expose identical attacker observations.
func (t *UTrace) Equal(u *UTrace) bool {
	if t.Format != u.Format || t.BPDigest != u.BPDigest {
		return false
	}
	if !eqU64(t.L1D, u.L1D) || !eqU64(t.TLB, u.TLB) || !eqU64(t.L1I, u.L1I) {
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
	diffSet("L1D-cache tags", t.L1D, u.L1D)
	diffSet("D-TLB pages", t.TLB, u.TLB)
	diffSet("L1I-cache tags", t.L1I, u.L1I)
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
