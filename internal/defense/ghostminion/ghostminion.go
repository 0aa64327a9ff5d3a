// Package ghostminion implements a GhostMinion-style strictness-ordered
// invisible-speculation scheme (Ainsworth, MICRO 2021) — the redesign the
// paper names as the fix for its same-core speculative interference
// variant (UV2): "younger loads cannot influence the execution time of
// older loads".
//
// Like InvisiSpec, speculative loads are invisible to the cache hierarchy
// and become visible through an install when they turn safe at commit. The
// two strictness-ordering differences are exactly the ones UV2 exploits:
//
//   - speculative requests never occupy MSHRs (they ride a ghost-buffer
//     path that regular requests pre-empt), so they cannot delay older or
//     safe requests, and
//   - the commit-time install does not wait on an in-order queue behind
//     other speculative work.
package ghostminion

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// GhostMinion implements uarch.Defense. It needs no squash hook: the
// ghost-buffer entries of squashed loads vanish without a trace.
type GhostMinion struct {
	uarch.NoHooks
	c *uarch.Core
}

// New builds the defense.
func New() *GhostMinion { return &GhostMinion{} }

// Name implements uarch.Defense.
func (g *GhostMinion) Name() string { return "GhostMinion" }

// Attach implements uarch.Defense.
func (g *GhostMinion) Attach(c *uarch.Core) { g.c = c }

// LoadAction implements uarch.Defense: speculative loads are invisible and
// MSHR-free (strictness ordering: they may never delay anything older).
func (g *GhostMinion) LoadAction(ld *uarch.DynInst, spec bool) uarch.LoadAction {
	if !spec {
		return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
	}
	return uarch.LoadAction{
		UpdateLRU:  false,
		Sink:       mem.SinkNone,
		NoMSHR:     true,
		TLBInstall: false, // the ghost path has its own shadow translations
	}
}

// StoreAction implements uarch.Defense: speculative stores do not touch
// the TLB (their translation rides the ghost path as well).
func (g *GhostMinion) StoreAction(st *uarch.DynInst, spec bool) uarch.StoreAction {
	if spec {
		return uarch.StoreAction{TLBAccess: false}
	}
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}

// OnCommit implements uarch.Defense: the now-safe load's lines transfer
// from the ghost buffer into the caches. Unlike InvisiSpec's expose queue
// this happens unconditionally: a safe request is the strictest age class
// and nothing speculative can stall it.
func (g *GhostMinion) OnCommit(in *uarch.DynInst) {
	if !in.IsLoad() || !in.SpecAtIssue || in.Forwarded {
		return
	}
	now := g.c.Now()
	install := func(line uint64) {
		g.c.Hier.L1D.Install(line)
		g.c.Hier.L2.Install(line)
		g.c.Hier.TranslateData(now, line, true)
		g.c.Log.Add(now, in.Seq, in.PC, uarch.LogFill, line)
	}
	install(g.c.Hier.L1D.LineAddr(in.EffAddr))
	if in.IsSplit {
		install(in.Line2)
	}
}
