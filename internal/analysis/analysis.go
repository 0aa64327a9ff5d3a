// Package analysis implements AMuLeT-Go's violation-analysis workflow
// (paper §3.3): it replays a violating input pair with the simulator debug
// log enabled, classifies the violation by its log and trace signature
// (the paper's leakage-specific filtering), renders a human-readable
// report in the style of the paper's violation figures, and deduplicates
// violations by signature.
package analysis

import (
	"fmt"
	"strings"

	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Signature classifies a violation by its mechanism. Signatures correspond
// to the paper's findings: filtering by them is how the campaign avoids
// re-discovering the same root cause (§3.3 step b).
type Signature string

// Known violation signatures.
const (
	SigTLBLeak          Signature = "tlb-leak"           // TLB-only difference (STT KV3 shape)
	SigICacheTiming     Signature = "icache-timing"      // L1I-only difference (KV1 / unXpec KV2 shape)
	SigMSHRInterference Signature = "mshr-interference"  // expose stalls in one run (InvisiSpec UV2)
	SigSpecStore        Signature = "spec-store-install" // speculative store's line survives (CleanupSpec UV3)
	SigSplitRequest     Signature = "split-request"      // split access not cleaned (CleanupSpec UV4)
	SigOverClean        Signature = "undo-overclean"     // rollback removed a non-speculative footprint (UV5)
	SigSpecEviction     Signature = "spec-eviction"      // primed line evicted by a squashed access (InvisiSpec UV1)
	SigSpecInstall      Signature = "spec-install"       // transient line installed (Spectre-v1/v4, SpecLFB UV6)
	SigNotReproduced    Signature = "not-reproduced"     // the replay's two traces are identical
	SigUnknown          Signature = "unknown"
)

// Report is the analyzed form of one violation.
type Report struct {
	Violation *fuzzer.Violation
	Signature Signature
	Detail    string

	LogA, LogB []uarch.LogRec
}

// Analyze replays the violation on the executor (which must be configured
// with the same defense and core parameters as the campaign that found it)
// and classifies it.
func Analyze(exec *executor.Executor, v *fuzzer.Violation) (*Report, error) {
	inA, inB, err := v.Inputs()
	if err != nil {
		return nil, err
	}
	if err := exec.LoadProgram(v.Program, v.Sandbox); err != nil {
		return nil, err
	}
	logA, logB, trA, trB, err := exec.RunLoggedPair(inA, inB)
	if err != nil {
		return nil, err
	}
	if v.TraceA == nil || v.TraceB == nil {
		// Violations restored from a checkpoint carry no µarch traces (the
		// checkpoint drops them; they are large and replay-derivable). The
		// replay above just regenerated them, so backfill for Report.String.
		v.TraceA, v.TraceB = trA, trB
	}
	r := &Report{Violation: v, LogA: logA, LogB: logB}
	r.Signature, r.Detail = classify(v, trA, trB, logA, logB)
	return r, nil
}

func classify(v *fuzzer.Violation, trA, trB *executor.UTrace, logA, logB []uarch.LogRec) (Signature, string) {
	if trA.Equal(trB) {
		return SigNotReproduced, "the replay's two traces are identical, so its logs show no leak: " +
			"the campaign validated this pair in the context the program's earlier inputs left " +
			"behind, which a replay from the program's start does not rebuild"
	}
	l1dDiff := !trA.L1D.Equal(&trB.L1D)
	tlbDiff := !equalU64(trA.TLB, trB.TLB)
	l1iDiff := !trA.L1I.Equal(&trB.L1I)

	if tlbDiff && !l1dDiff && !l1iDiff {
		return SigTLBLeak, "traces differ only in D-TLB state: a speculative access installed " +
			"a secret-dependent translation (the STT KV3 shape)"
	}
	if l1iDiff && !l1dDiff && !tlbDiff {
		return SigICacheTiming, "traces differ only in L1I state: input-dependent timing let the " +
			"fetch unit install different instruction lines (KV1 / unXpec KV2 shape)"
	}
	// InvisiSpec interference: the two runs stalled or completed a
	// different set of Expose requests — speculative requests delayed an
	// expose past the end of the test in one run (paper Table 7).
	stallsDiffer := !equalLineSets(kindLines(logA, uarch.LogExposeStall), kindLines(logB, uarch.LogExposeStall))
	exposesDiffer := !equalLineSets(kindLines(logA, uarch.LogExpose), kindLines(logB, uarch.LogExpose))
	if stallsDiffer || ((hasKind(logA, uarch.LogExposeStall) || hasKind(logB, uarch.LogExposeStall)) && exposesDiffer) {
		return SigMSHRInterference, "Expose requests stalled on busy MSHRs or completed differently " +
			"across the two runs: same-core speculative interference (InvisiSpec UV2 shape)"
	}
	onlyA, onlyB := setDiff(trA.L1D.AppendLines(nil), trB.L1D.AppendLines(nil))
	if sig, det, ok := classifyLineDiff(v, logA, logB, onlyA, onlyB); ok {
		return sig, det
	}
	if l1dDiff {
		return SigSpecInstall, "cache states differ through speculative installs"
	}
	if tlbDiff {
		return SigTLBLeak, "TLB states differ (combined with other differences)"
	}
	return SigUnknown, "no signature matched"
}

// classifyLineDiff inspects which lines differ and what the logs say about
// them. The fine-grained signatures are mechanism-specific, so they only
// apply to the defense families whose code paths produce them; on other
// targets the same surface pattern is just a speculative install/eviction.
func classifyLineDiff(v *fuzzer.Violation, logA, logB []uarch.LogRec, onlyA, onlyB []uint64) (Signature, string, bool) {
	isInvisiSpec := strings.HasPrefix(v.Defense, "InvisiSpec")
	isCleanupSpec := strings.HasPrefix(v.Defense, "CleanupSpec")

	// Missing primed lines indicate evictions by invisible requests.
	primedOnly := func(lines []uint64) bool {
		if len(lines) == 0 {
			return false
		}
		for _, l := range lines {
			if l < isa.DataBase || l >= isa.DataBase+v.Sandbox.Size() {
				continue
			}
			return false
		}
		return true
	}
	if isInvisiSpec && (primedOnly(onlyA) || primedOnly(onlyB)) {
		return SigSpecEviction, "an out-of-sandbox (primed) line was evicted in one run only: " +
			"a squashed request triggered a replacement (InvisiSpec UV1 shape)", true
	}
	if !isCleanupSpec {
		return SigUnknown, "", false
	}

	lineHasKind := func(log []uarch.LogRec, line uint64, kinds ...uarch.LogKind) bool {
		for _, r := range log {
			for _, k := range kinds {
				if r.Kind == k && r.Addr&^uint64(isa.LineSize-1) == line {
					return true
				}
			}
		}
		return false
	}
	check := func(log []uarch.LogRec, lines []uint64) (Signature, string, bool) {
		// Split requests first: a split speculative *store* is still a UV4
		// leak (the TODO skips cleanup for every split request), so the
		// UV3 signature only covers non-split stores.
		for _, line := range lines {
			if lineHasKind(log, line, uarch.LogSplit) {
				return SigSplitRequest, fmt.Sprintf("line %#x belongs to a split (line-crossing) "+
					"request that was not cleaned (CleanupSpec UV4 shape)", line), true
			}
		}
		for _, line := range lines {
			if lineHasKind(log, line, uarch.LogSpecSt) {
				return SigSpecStore, fmt.Sprintf("line %#x was written by a speculative store and "+
					"survived the squash (CleanupSpec UV3 shape)", line), true
			}
		}
		return SigUnknown, "", false
	}
	if sig, det, ok := check(logA, onlyA); ok {
		return sig, det, true
	}
	if sig, det, ok := check(logB, onlyB); ok {
		return sig, det, true
	}
	// A line removed by an Undo in the run where it is absent, while the
	// other run retains it through a non-speculative load, is the
	// "too much cleaning" shape.
	undoRemoved := func(log []uarch.LogRec, lines []uint64) bool {
		for _, line := range lines {
			if lineHasKind(log, line, uarch.LogUndo) && lineHasKind(log, line, uarch.LogLoad) {
				return true
			}
		}
		return false
	}
	if undoRemoved(logB, onlyA) || undoRemoved(logA, onlyB) {
		return SigOverClean, "a rollback invalidated a line a non-speculative load had touched " +
			"(CleanupSpec UV5 shape)", true
	}
	return SigUnknown, "", false
}

// Dedup groups reports by signature, the paper's "identifying unique
// violations" step.
func Dedup(reports []*Report) map[Signature][]*Report {
	out := make(map[Signature][]*Report)
	for _, r := range reports {
		out[r.Signature] = append(out[r.Signature], r)
	}
	return out
}

// kindLines returns the set of line addresses carrying records of kind k.
func kindLines(log []uarch.LogRec, k uarch.LogKind) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, r := range log {
		if r.Kind == k {
			out[r.Addr&^uint64(isa.LineSize-1)] = true
		}
	}
	return out
}

func equalLineSets(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func hasKind(log []uarch.LogRec, k uarch.LogKind) bool {
	for _, r := range log {
		if r.Kind == k {
			return true
		}
	}
	return false
}

func equalU64(a, b []uint64) bool {
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

func setDiff(a, b []uint64) (onlyA, onlyB []uint64) {
	inB := make(map[uint64]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	inA := make(map[uint64]bool, len(a))
	for _, v := range a {
		inA[v] = true
		if !inB[v] {
			onlyA = append(onlyA, v)
		}
	}
	for _, v := range b {
		if !inA[v] {
			onlyB = append(onlyB, v)
		}
	}
	return onlyA, onlyB
}

// String renders the full report: the program, the differing inputs, the
// trace diff and the side-by-side operation log — the layout of the
// paper's violation figures and tables.
func (r *Report) String() string {
	v := r.Violation
	var b strings.Builder
	fmt.Fprintf(&b, "=== Contract violation: %s vs %s ===\n", v.Defense, v.Contract)
	fmt.Fprintf(&b, "Classification: %s\n  %s\n", r.Signature, r.Detail)
	fmt.Fprintf(&b, "\nTest program (index %d in campaign):\n%s", v.ProgramIndex, v.Program)
	fmt.Fprintf(&b, "\nDiffering input state (the leaked secret):\n%s", diffInputs(v))
	fmt.Fprintf(&b, "\nMicro-architectural trace diff:\n%s", v.TraceA.Diff(v.TraceB))
	fmt.Fprintf(&b, "\nOperation log (side by side, input A | input B):\n%s", SideBySide(r.LogA, r.LogB, 40))
	return b.String()
}

// diffInputs summarizes how the violation's two inputs differ.
func diffInputs(v *fuzzer.Violation) string {
	a, b, err := v.Inputs()
	if err != nil {
		return fmt.Sprintf("  (%v)\n", err)
	}
	var sb strings.Builder
	for r := 0; r < isa.NumRegs; r++ {
		if a.Regs[r] != b.Regs[r] {
			fmt.Fprintf(&sb, "  %s: %#x vs %#x\n", isa.Reg(r), a.Regs[r], b.Regs[r])
		}
	}
	diff := 0
	first := -1
	memA, memB := a.Mem.Dense(), b.Mem.Dense()
	for i := range memA {
		if memA[i] != memB[i] {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if diff > 0 {
		fmt.Fprintf(&sb, "  memory: %d byte(s) differ (first at offset %#x)\n", diff, first)
	}
	if sb.Len() == 0 {
		return "  (none)\n"
	}
	return sb.String()
}

// SideBySide renders two operation logs aligned by record index,
// restricted to memory-relevant kinds, like the paper's Tables 7/9/10.
func SideBySide(logA, logB []uarch.LogRec, maxRows int) string {
	keep := func(log []uarch.LogRec) []uarch.LogRec {
		var out []uarch.LogRec
		for _, r := range log {
			switch r.Kind {
			case uarch.LogLoad, uarch.LogSpecLd, uarch.LogStore, uarch.LogSpecSt,
				uarch.LogUndo, uarch.LogExpose, uarch.LogExposeStall, uarch.LogSquash,
				uarch.LogMOV, uarch.LogTLBFill, uarch.LogSplit:
				out = append(out, r)
			}
		}
		return out
	}
	a, bb := keep(logA), keep(logB)
	n := len(a)
	if len(bb) > n {
		n = len(bb)
	}
	if n > maxRows {
		n = maxRows
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s | %s\n", "Input A", "Input B")
	row := func(log []uarch.LogRec, i int) string {
		if i >= len(log) {
			return ""
		}
		r := log[i]
		return fmt.Sprintf("%6d %#x %-11s %#x", r.Cycle, r.PC, r.Kind, r.Addr)
	}
	// Collapse long runs of identical ExposeStall rows for readability.
	for i := 0; i < n; i++ {
		ra, rb := row(a, i), row(bb, i)
		marker := "  "
		if ra != rb {
			marker = "<>"
		}
		fmt.Fprintf(&sb, "%-44s %s %s\n", ra, marker, rb)
	}
	if len(a) > n || len(bb) > n {
		fmt.Fprintf(&sb, "... (%d vs %d records total)\n", len(a), len(bb))
	}
	return sb.String()
}
