// Package invisispec re-implements the InvisiSpec secure-speculation
// countermeasure (Yan et al., MICRO 2018) in its Futuristic mode, as it
// appears in the open-source gem5 code base the paper tested — including
// the implementation bug AMuLeT discovered (UV1: speculative loads trigger
// L1 replacements). Speculative loads fetch data invisibly (no cache
// install, no LRU update); when a load becomes safe at commit, an Expose
// request installs the line through the regular miss path. Expose requests
// sit in an in-order cache-controller queue and need MSHRs, which is the
// contention that AMuLeT's same-core speculative interference variant
// (UV2) exploits once MSHRs are scarce.
package invisispec

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config selects the implementation variant under test.
type Config struct {
	// PatchUV1 applies the paper's fix (Listing 2): L1 replacements are
	// triggered only for non-speculative requests. The unpatched behaviour
	// (Listing 1) evicts a victim on every miss in a full set, leaking the
	// speculative load's set index through the evicted address.
	PatchUV1 bool
}

// InvisiSpec implements uarch.Defense. It needs no squash hook: squashed
// speculative loads leave no visible state to clean (their MSHRs stay busy
// until the fill returns, which is exactly the interference channel).
type InvisiSpec struct {
	uarch.NoHooks
	cfg Config
	c   *uarch.Core

	exposeQ []exposeReq
}

type exposeReq struct {
	line uint64
	seq  uint64
	pc   uint64
}

// exposeLat is how long an Expose transaction holds its MSHR. The data is
// already in the speculative buffer, so the expose is a short coherence
// transaction, not a memory fetch; its line becomes visible at issue.
const exposeLat = 16

// New builds the defense.
func New(cfg Config) *InvisiSpec { return &InvisiSpec{cfg: cfg} }

// Name implements uarch.Defense.
func (v *InvisiSpec) Name() string {
	if v.cfg.PatchUV1 {
		return "InvisiSpec-Patched"
	}
	return "InvisiSpec"
}

// Attach implements uarch.Defense.
func (v *InvisiSpec) Attach(c *uarch.Core) { v.c = c }

// Reset implements uarch.Defense.
func (v *InvisiSpec) Reset() { v.exposeQ = v.exposeQ[:0] }

// LoadAction implements uarch.Defense. Safe loads behave normally.
// Speculative loads read through to memory without becoming visible: no
// install, no LRU update — except for the UV1 replacement bug.
func (v *InvisiSpec) LoadAction(ld *uarch.DynInst, spec bool) uarch.LoadAction {
	if !spec {
		return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
	}
	return uarch.LoadAction{
		UpdateLRU:          false,
		Sink:               mem.SinkNone,
		EvictOnMissFullSet: !v.cfg.PatchUV1,
		// InvisiSpec does not protect the TLB (the paper uses a one-page
		// sandbox for it precisely because of that).
		TLBInstall: true,
	}
}

// StoreAction implements uarch.Defense: stores are not protected before
// commit beyond the baseline behaviour (no speculative cache write exists
// in this pipeline).
func (v *InvisiSpec) StoreAction(*uarch.DynInst, bool) uarch.StoreAction {
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}

// OnCommit implements uarch.Defense: a load that executed speculatively
// becomes safe at commit and enqueues Expose requests for its line(s).
// The queue drains immediately when MSHRs allow, so under uncontended
// conditions every committed speculative load becomes visible before the
// test ends — the paper's violations require the queue to be *blocked*.
func (v *InvisiSpec) OnCommit(in *uarch.DynInst) {
	if !in.IsLoad() || !in.SpecAtIssue || in.Forwarded {
		return
	}
	line := v.c.Hier.L1D.LineAddr(in.EffAddr)
	v.exposeQ = append(v.exposeQ, exposeReq{line: line, seq: in.Seq, pc: in.PC})
	if in.IsSplit {
		v.exposeQ = append(v.exposeQ, exposeReq{line: in.Line2, seq: in.Seq, pc: in.PC})
	}
	v.drainExposes()
}

// OnTick implements uarch.Defense: keep draining the in-order expose queue.
func (v *InvisiSpec) OnTick() { v.drainExposes() }

// TickIdle implements uarch.Defense: the tick only matters while exposes
// are queued. New exposes are enqueued at commit, which cannot happen
// inside a quiescent span, so an empty queue stays empty until the next
// active cycle.
func (v *InvisiSpec) TickIdle() bool { return len(v.exposeQ) == 0 }

// drainExposes issues queued Expose requests in order. An expose needs a
// free MSHR for its coherence transaction; while none is free the whole
// in-order queue stalls behind the head. Exposes that cannot issue before
// the test case ends never become visible — the paper's Table 7 scenario.
//
// The issued prefix is dropped by one compaction at the end rather than by
// advancing the slice start per request: that would shed the queue's
// capacity, and every commit would allocate a fresh one.
func (v *InvisiSpec) drainExposes() {
	now := v.c.Now()
	done := 0
	for done < len(v.exposeQ) {
		head := v.exposeQ[done]
		// A line already visible (e.g. a safe access raced ahead) needs no
		// transaction.
		if !v.c.Hier.L1D.Touch(head.line) {
			if v.c.Hier.MSHR.FreeCount(now) == 0 {
				v.c.Log.Add(now, head.seq, head.pc, uarch.LogExposeStall, head.line)
				break
			}
			v.c.Hier.MSHR.Alloc(now, now+exposeLat, head.line)
			v.c.Hier.L1D.Install(head.line)
			v.c.Hier.L2.Install(head.line)
		}
		v.c.Log.Add(now, head.seq, head.pc, uarch.LogExpose, head.line)
		done++
	}
	if done > 0 {
		v.exposeQ = v.exposeQ[:copy(v.exposeQ, v.exposeQ[done:])]
	}
}
