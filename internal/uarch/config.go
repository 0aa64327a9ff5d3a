package uarch

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/mem"
)

// Config configures the out-of-order core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int

	LatALU    int // simple ALU latency
	LatMul    int // multiply latency
	LatBranch int // conditional-branch resolution latency (branch unit + redirect)

	Hier  mem.HierConfig
	BPred BPredConfig

	// MaxCycles aborts runaway simulations; generated programs are DAGs so
	// the bound only protects against model bugs.
	MaxCycles uint64
}

// DefaultConfig returns the default core configuration (paper-like gem5
// O3CPU defaults at small scale).
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROBSize:     64,
		LatALU:      1,
		LatMul:      3,
		LatBranch:   4,
		Hier:        mem.DefaultHierConfig(),
		BPred:       DefaultBPredConfig(),
		MaxCycles:   200000,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("uarch: pipeline widths must be >= 1")
	}
	if c.ROBSize < 4 {
		return fmt.Errorf("uarch: ROB size must be >= 4, got %d", c.ROBSize)
	}
	if c.LatALU < 1 || c.LatMul < 1 || c.LatBranch < 1 {
		return fmt.Errorf("uarch: execution latencies must be >= 1")
	}
	if c.MaxCycles < 1000 {
		return fmt.Errorf("uarch: MaxCycles must be >= 1000, got %d", c.MaxCycles)
	}
	return c.Hier.Validate()
}

// Stats aggregates per-run pipeline counters.
type Stats struct {
	Cycles             uint64
	Fetched            uint64
	Committed          uint64
	Squashed           uint64
	Mispredicts        uint64
	MemOrderViolations uint64
	L1DAccesses        uint64
	L1DMisses          uint64
	TLBMisses          uint64
}

// AccessRec is one entry of the memory-access-order µarch trace format
// (Table 5): the PC and address of every load/store execution, speculative
// ones included, in issue order.
type AccessRec struct {
	PC    uint64
	Addr  uint64
	Store bool
}

// BranchRec is one entry of the branch-prediction-order trace format: each
// prediction made by the fetch unit, in fetch order.
type BranchRec struct {
	PC        uint64
	PredTaken bool
	Target    uint64
}
