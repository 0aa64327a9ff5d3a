// Package delayonmiss implements Delay-on-Miss (Sakalis et al., ISCA 2019,
// without the value-prediction half): speculative loads that hit in the
// L1D proceed normally, while speculative misses are delayed until the
// load leaves every branch shadow. SpecLFB is the paper's LFB-based
// refinement of this idea; the plain version serves as a known-secure
// comparison point for the fuzzer — campaigns against it must come back
// clean under CT-SEQ — and as the performance baseline the refinements
// improve on.
package delayonmiss

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// DelayOnMiss implements uarch.Defense.
type DelayOnMiss struct {
	uarch.NoHooks
	c *uarch.Core
}

// New builds the defense.
func New() *DelayOnMiss { return &DelayOnMiss{} }

// Name implements uarch.Defense.
func (d *DelayOnMiss) Name() string { return "DelayOnMiss" }

// Attach implements uarch.Defense.
func (d *DelayOnMiss) Attach(c *uarch.Core) { d.c = c }

// LoadAction implements uarch.Defense: speculative hits proceed (they
// change no tag state), speculative misses wait for the shadow to clear.
func (d *DelayOnMiss) LoadAction(ld *uarch.DynInst, spec bool) uarch.LoadAction {
	if !spec {
		return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
	}
	line := d.c.Hier.L1D.LineAddr(ld.EffAddr)
	hit := d.c.Hier.L1D.Contains(line)
	if hit && ld.IsSplit {
		hit = d.c.Hier.L1D.Contains(ld.Line2)
	}
	// The TLB is delayed alongside the cache: a speculative miss performs
	// no translation either (Delay-on-Miss delays the whole access).
	if !hit {
		return uarch.LoadAction{Delay: true}
	}
	return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: false}
}

// StoreAction implements uarch.Defense: speculative stores are delayed
// entirely (they have no safe-hit fast path).
func (d *DelayOnMiss) StoreAction(st *uarch.DynInst, spec bool) uarch.StoreAction {
	if spec {
		return uarch.StoreAction{Delay: true}
	}
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}
