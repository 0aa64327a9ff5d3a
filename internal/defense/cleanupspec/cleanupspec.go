// Package cleanupspec re-implements the CleanupSpec countermeasure
// (Saileshwar & Qureshi, MICRO 2019) as it appears in the open-source gem5
// code base the paper tested. Speculative loads modify the cache freely;
// undo metadata recorded at access time lets the defense roll the changes
// back when the load squashes. The package reproduces the three problems
// AMuLeT found in that code base:
//
//   - UV3: writeCallback() records no cleanup metadata for speculative
//     stores, so their cache installs survive squashes (gated by PatchUV3).
//   - UV4: requests crossing a cache-line boundary (split requests) are
//     never cleaned — the literal `// TODO: Cleanup for SplitReq` in the
//     artifact (gated by FixSplitCleanup).
//   - UV5: rollback is oblivious to non-speculative loads that touched the
//     same line, so cleaning erases their footprint too ("too much
//     cleaning"); this is inherent to the rollback scheme as implemented.
//
// Rollback work sits on the squash critical path, which is the timing
// difference behind the unXpec vulnerability (KV2).
package cleanupspec

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config selects the implementation variant under test.
type Config struct {
	// PatchUV3 makes speculative stores record cleanup metadata, like the
	// paper's fix for the missing writeCallback() tracking.
	PatchUV3 bool
	// FixSplitCleanup resolves the UV4 TODO: split requests get cleaned.
	FixSplitCleanup bool
	// CleanupCycles is the rollback latency per cleaned line (squash
	// critical path). Zero selects the default.
	CleanupCycles int
}

const defaultCleanupCycles = 8

// CleanupSpec implements uarch.Defense.
type CleanupSpec struct {
	uarch.NoHooks
	cfg Config
	c   *uarch.Core

	// meta holds the undo records per speculative access, keyed by
	// sequence. Records are values and the map is cleared, not rebuilt, per
	// input, so recording allocates nothing once the map has grown to the
	// widest test.
	meta map[uint64]undoMeta
}

// undoMeta is the cleanup metadata of one speculative access, which touches
// at most two lines (its own and, when split, the next one).
type undoMeta struct {
	line  [2]lineMeta
	n     int
	split bool
}

// lines returns the recorded lines.
func (m *undoMeta) lines() []lineMeta { return m.line[:m.n] }

type lineMeta struct {
	line      uint64
	l1Hit     bool
	fillID    uint64
	installed bool   // fill completed, line is in the cache
	victim    uint64 // line evicted by the install
	hasVictim bool
}

// New builds the defense.
func New(cfg Config) *CleanupSpec {
	if cfg.CleanupCycles == 0 {
		cfg.CleanupCycles = defaultCleanupCycles
	}
	return &CleanupSpec{cfg: cfg, meta: make(map[uint64]undoMeta)}
}

// Name implements uarch.Defense.
func (cs *CleanupSpec) Name() string {
	if cs.cfg.PatchUV3 {
		return "CleanupSpec-Patched"
	}
	return "CleanupSpec"
}

// Attach implements uarch.Defense.
func (cs *CleanupSpec) Attach(c *uarch.Core) { cs.c = c }

// Reset implements uarch.Defense.
func (cs *CleanupSpec) Reset() { clear(cs.meta) }

// LoadAction implements uarch.Defense: loads always access the cache
// normally — CleanupSpec is an undo scheme, not an invisibility scheme.
func (cs *CleanupSpec) LoadAction(*uarch.DynInst, bool) uarch.LoadAction {
	return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
}

// StoreAction implements uarch.Defense: the code base write-allocates the
// store's line at execute time (the writeCallback path), which is what UV3
// leaves uncleaned.
func (cs *CleanupSpec) StoreAction(*uarch.DynInst, bool) uarch.StoreAction {
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true, PrefetchLine: true}
}

// OnLoadExecuted implements uarch.Defense: record undo metadata for
// speculative loads.
func (cs *CleanupSpec) OnLoadExecuted(ld *uarch.DynInst, res1, res2 mem.DataAccessResult) {
	if !ld.SpecAtIssue || ld.Forwarded {
		return
	}
	cs.record(ld, res1, res2)
}

// OnStoreExecuted implements uarch.Defense: the unpatched code base forgets
// to record metadata for speculative stores (UV3).
func (cs *CleanupSpec) OnStoreExecuted(st *uarch.DynInst, res1, res2 mem.DataAccessResult) {
	if !st.SpecAtIssue {
		return
	}
	if !cs.cfg.PatchUV3 {
		return // BUG (UV3): writeCallback() skips the cleanup metadata.
	}
	cs.record(st, res1, res2)
}

func (cs *CleanupSpec) record(in *uarch.DynInst, res1, res2 mem.DataAccessResult) {
	m := undoMeta{split: in.IsSplit, n: 1}
	m.line[0] = lineMeta{
		line:   cs.c.Hier.L1D.LineAddr(in.EffAddr),
		l1Hit:  res1.L1Hit,
		fillID: res1.FillID,
	}
	if in.IsSplit {
		m.line[1] = lineMeta{line: in.Line2, l1Hit: res2.L1Hit, fillID: res2.FillID}
		m.n = 2
	}
	cs.meta[in.Seq] = m
}

// OnCommit implements uarch.Defense: committed accesses are safe, their
// metadata is retired without cleanup.
func (cs *CleanupSpec) OnCommit(in *uarch.DynInst) {
	delete(cs.meta, in.Seq)
}

// OnFills implements uarch.Defense: learn which line a speculative access
// installed and whom it evicted, so rollback can restore the victim.
func (cs *CleanupSpec) OnFills(fills []mem.CompletedFill) {
	for _, f := range fills {
		if f.Sink != mem.SinkCache {
			continue
		}
		m, ok := cs.meta[f.Owner]
		if !ok {
			continue
		}
		lines := m.lines()
		for i := range lines {
			if lines[i].fillID == f.ID {
				lines[i].installed = true
				lines[i].victim = f.Victim
				lines[i].hasVictim = f.Evicted
			}
		}
		cs.meta[f.Owner] = m
	}
}

// OnSquash implements uarch.Defense: roll back the cache state changes of
// every squashed speculative access that has metadata. Each rollback
// operation occupies an MSHR for CleanupCycles (the restore fetches the
// victim line from L2), so cleanup work sits on the critical path of
// subsequent memory accesses — the timing channel behind unXpec (KV2):
// inputs that need more cleaning finish later, and the fetch unit running
// ahead of the slower drain installs extra lines into the L1I.
func (cs *CleanupSpec) OnSquash(squashed []*uarch.DynInst) int {
	ops := 0
	now := cs.c.Now()
	for _, in := range squashed {
		m, ok := cs.meta[in.Seq]
		if !ok {
			continue
		}
		delete(cs.meta, in.Seq)
		if m.split && !cs.cfg.FixSplitCleanup {
			// BUG (UV4): `// TODO: Cleanup for SplitReq` — squashed split
			// requests are not cleaned at all.
			continue
		}
		for _, lm := range m.lines() {
			if lm.l1Hit {
				continue // the access changed no tag state
			}
			if !lm.installed {
				// Fill still in flight: cancel it before it lands.
				cs.c.Hier.CancelFill(lm.fillID)
				continue
			}
			// Invalidate the speculatively installed line. This is the "too
			// much cleaning" vulnerability (UV5): any non-speculative load
			// that hit this line loses its footprint too, because the
			// metadata cannot tell the difference.
			cs.c.Hier.L1D.Invalidate(lm.line)
			cs.c.Log.Add(now, in.Seq, in.PC, uarch.LogUndo, lm.line)
			ops++
			if lm.hasVictim {
				// Restore the evicted line from L2.
				cs.c.Hier.L1D.Install(lm.victim)
				ops++
			}
		}
	}
	// Rollback work blocks the L1D port: subsequent accesses wait for it.
	if ops > 0 {
		cs.c.Hier.BlockDataPort(now + uint64(ops*cs.cfg.CleanupCycles))
	}
	return 0
}
