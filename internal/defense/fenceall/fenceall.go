// Package fenceall implements the most conservative countermeasure: every
// memory access is delayed until it leaves all branch shadows, equivalent
// to fencing every branch. It trivially satisfies CT-SEQ and serves two
// roles in this repository: a soundness control for the fuzzer (a campaign
// that flags fenceall has a fuzzer bug) and the upper bound in the
// defense-overhead comparison benchmarks.
package fenceall

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// FenceAll implements uarch.Defense.
type FenceAll struct{ uarch.NoHooks }

// New builds the defense.
func New() *FenceAll { return &FenceAll{} }

// Name implements uarch.Defense.
func (FenceAll) Name() string { return "FenceAll" }

// LoadAction implements uarch.Defense: no load issues under a shadow.
func (FenceAll) LoadAction(_ *uarch.DynInst, spec bool) uarch.LoadAction {
	if spec {
		return uarch.LoadAction{Delay: true}
	}
	return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
}

// StoreAction implements uarch.Defense: no store issues under a shadow.
func (FenceAll) StoreAction(_ *uarch.DynInst, spec bool) uarch.StoreAction {
	if spec {
		return uarch.StoreAction{Delay: true}
	}
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}
