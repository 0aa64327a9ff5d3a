package uarch

import (
	"fmt"
	"strings"
)

// LogKind classifies one debug-log record. The log reproduces the gem5
// debug output that the paper's violation-analysis workflow (§3.3) parses:
// the analysis package renders side-by-side diffs of these records for the
// two violating inputs (paper Tables 7, 9, 10).
type LogKind uint8

// Debug-log record kinds.
const (
	LogLoad        LogKind = iota // non-speculative load executed
	LogSpecLd                     // speculative load executed
	LogStore                      // store executed (address resolved)
	LogSpecSt                     // speculative store executed
	LogCommitSt                   // store data written at commit
	LogFill                       // cache fill installed a line
	LogUndo                       // CleanupSpec rollback of a line
	LogExpose                     // InvisiSpec expose issued
	LogExposeStall                // InvisiSpec expose stalled (no MSHR)
	LogSquash                     // pipeline squash
	LogMOV                        // memory-order violation (Spectre-v4 path)
	LogTLBFill                    // D-TLB entry installed
	LogLFBAlloc                   // SpecLFB line staged in the fill buffer
	LogLFBRel                     // SpecLFB line released into the cache
	LogSplit                      // access crossed a cache-line boundary
)

var logKindNames = [...]string{
	"Load", "SpecLd", "Store", "SpecSt", "CommitSt", "Fill", "Undo",
	"Expose", "ExposeStall", "Squash", "MOViolation", "TLBFill",
	"LFBAlloc", "LFBRelease", "SplitReq",
}

// String returns the record-kind name.
func (k LogKind) String() string {
	if int(k) < len(logKindNames) {
		return logKindNames[k]
	}
	return fmt.Sprintf("LOG(%d)", uint8(k))
}

// LogRec is one debug-log record.
type LogRec struct {
	Cycle uint64
	Seq   uint64
	PC    uint64
	Kind  LogKind
	Addr  uint64
}

// String renders the record in the tabular style of the paper's tables.
func (r LogRec) String() string {
	return fmt.Sprintf("%6d  %#x  %-11s %#x", r.Cycle, r.PC, r.Kind, r.Addr)
}

// DebugLog collects records when enabled. Logging is disabled during
// campaigns and re-enabled when the analysis replays a violating pair.
type DebugLog struct {
	Enabled bool
	Recs    []LogRec
}

// Add appends a record when logging is enabled.
func (d *DebugLog) Add(cycle, seq, pc uint64, kind LogKind, addr uint64) {
	if !d.Enabled {
		return
	}
	d.Recs = append(d.Recs, LogRec{Cycle: cycle, Seq: seq, PC: pc, Kind: kind, Addr: addr})
}

// Reset drops all records.
func (d *DebugLog) Reset() { d.Recs = d.Recs[:0] }

// String renders the whole log.
func (d *DebugLog) String() string {
	var b strings.Builder
	for _, r := range d.Recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
