// Package speclfb re-implements SpecLFB (Cheng et al., USENIX Security
// 2024) as in the open-source gem5 code base the paper tested. Speculative
// load misses are parked in the line-fill buffer instead of installing into
// the cache; when the load turns safe the line is released into the L1D,
// and a squashed load's entries are simply dropped.
//
// The package reproduces the undocumented optimization AMuLeT exposed
// (UV6): the implementation clears the isReallyUnsafe flag for the first
// speculative load in the load-store queue, so a Spectre-v1 gadget with a
// single speculative load installs into the cache unprotected (paper
// Figure 8).
package speclfb

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config selects the implementation variant under test.
type Config struct {
	// PatchUV6 removes the first-speculative-load exemption so every
	// speculative load is protected.
	PatchUV6 bool
}

// SpecLFB implements uarch.Defense.
type SpecLFB struct {
	uarch.NoHooks
	cfg Config
	c   *uarch.Core

	// staged maps a load's sequence number to the lines it parked in the
	// fill buffer, released at commit or dropped at squash. The records are
	// values and the map is cleared, not rebuilt, per input, so staging
	// allocates nothing once the map has grown to the widest test.
	staged map[uint64]stagedLines
}

// stagedLines is the fill-buffer footprint of one load: a load touches at
// most two lines (its own and, when split, the next one).
type stagedLines struct {
	line [2]uint64
	n    int
}

// New builds the defense.
func New(cfg Config) *SpecLFB {
	return &SpecLFB{cfg: cfg, staged: make(map[uint64]stagedLines)}
}

// Name implements uarch.Defense.
func (s *SpecLFB) Name() string {
	if s.cfg.PatchUV6 {
		return "SpecLFB-Patched"
	}
	return "SpecLFB"
}

// Attach implements uarch.Defense.
func (s *SpecLFB) Attach(c *uarch.Core) { s.c = c }

// Reset implements uarch.Defense.
func (s *SpecLFB) Reset() {
	clear(s.staged)
	if s.c != nil {
		s.c.Hier.LFBuf.Reset()
	}
}

// LoadAction implements uarch.Defense. Safe loads install normally.
// Unsafe loads may hit the cache, but misses are staged in the LFB — unless
// the UV6 exemption fires for the first speculative load in the queue.
func (s *SpecLFB) LoadAction(ld *uarch.DynInst, spec bool) uarch.LoadAction {
	if !spec {
		return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
	}
	if !s.cfg.PatchUV6 && s.isPrevNoUnsafe(ld) {
		// BUG (UV6): isReallyUnsafe is cleared for the first speculative
		// load in the LSQ, so isUnsafe() returns false and the load is
		// treated as safe: it installs straight into the cache.
		return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
	}
	// Protected path: a miss needs a free LFB entry, otherwise it stalls.
	line := s.c.Hier.L1D.LineAddr(ld.EffAddr)
	need := 0
	if !s.c.Hier.L1D.Contains(line) && !s.c.Hier.LFBuf.Contains(line) {
		need++
	}
	if ld.IsSplit && !s.c.Hier.L1D.Contains(ld.Line2) && !s.c.Hier.LFBuf.Contains(ld.Line2) {
		need++
	}
	if need > s.c.Hier.LFBuf.FreeCount() {
		return uarch.LoadAction{Delay: true}
	}
	return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkLFB, TLBInstall: true}
}

// isPrevNoUnsafe reports whether no older unsafe load exists in the LSQ —
// the isPrevNoUnsafe() check whose effect the UV6 bug mishandles. It runs
// for every speculative load issue attempt, so it walks the core's
// dedicated load queue (InFlightLoadsBefore) rather than the full ROB;
// with the O(1) UnderShadow this turns the old O(ROB²) worst case into
// O(older loads).
func (s *SpecLFB) isPrevNoUnsafe(ld *uarch.DynInst) bool {
	noUnsafe := true
	s.c.InFlightLoadsBefore(ld.Seq, func(older *uarch.DynInst) bool {
		unsafe := older.SpecAtIssue
		if older.State == uarch.StDispatched {
			unsafe = s.c.UnderShadow(older)
		}
		if unsafe {
			noUnsafe = false
			return false
		}
		return true
	})
	return noUnsafe
}

// StoreAction implements uarch.Defense.
func (s *SpecLFB) StoreAction(*uarch.DynInst, bool) uarch.StoreAction {
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}

// OnLoadExecuted implements uarch.Defense: remember which lines this load
// will stage so commit/squash can release or drop them.
func (s *SpecLFB) OnLoadExecuted(ld *uarch.DynInst, res1, res2 mem.DataAccessResult) {
	if !ld.SpecAtIssue || ld.Forwarded {
		return
	}
	var st stagedLines
	if res1.FillID != 0 || res1.Coalesced {
		st.line[st.n] = s.c.Hier.L1D.LineAddr(ld.EffAddr)
		st.n++
	}
	if ld.IsSplit && (res2.FillID != 0 || res2.Coalesced) {
		st.line[st.n] = ld.Line2
		st.n++
	}
	if st.n > 0 {
		s.staged[ld.Seq] = st
	}
}

// OnCommit implements uarch.Defense: the load is safe now; release its
// staged lines from the fill buffer into the cache.
func (s *SpecLFB) OnCommit(in *uarch.DynInst) {
	st, ok := s.staged[in.Seq]
	if !ok {
		return
	}
	delete(s.staged, in.Seq)
	now := s.c.Now()
	for _, line := range st.line[:st.n] {
		if s.c.Hier.LFBuf.Release(line) {
			s.c.Hier.L1D.Install(line)
			s.c.Hier.L2.Install(line)
			s.c.Log.Add(now, in.Seq, in.PC, uarch.LogLFBRel, line)
		}
		// A line whose fill has not completed yet simply stays in flight;
		// when it lands in the LFB after the owner is gone it is dropped
		// at the next Reset. Committing loads normally have their data.
	}
}

// OnSquash implements uarch.Defense: drop staged lines and cancel fills.
func (s *SpecLFB) OnSquash(squashed []*uarch.DynInst) int {
	for _, in := range squashed {
		if !in.IsLoad() {
			continue
		}
		delete(s.staged, in.Seq)
		for _, id := range in.FillIDs {
			s.c.Hier.CancelFill(id)
		}
		s.c.Hier.LFBuf.DropOwner(in.Seq)
	}
	return 0
}

// OnFills implements uarch.Defense: log lines arriving in the fill buffer.
func (s *SpecLFB) OnFills(fills []mem.CompletedFill) {
	for _, f := range fills {
		if f.Sink == mem.SinkLFB {
			s.c.Log.Add(s.c.Now(), f.Owner, 0, uarch.LogLFBAlloc, f.LineAddr)
		}
	}
}
