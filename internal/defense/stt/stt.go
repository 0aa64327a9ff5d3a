// Package stt re-implements Speculative Taint Tracking (Yu et al., MICRO
// 2019) in its Futuristic mode, as in the open-source gem5 code base the
// paper tested. Loads executed under an unresolved branch shadow produce
// tainted results; taint propagates through register data flow; and
// transmitters — memory instructions whose address depends on tainted data
// — are blocked from executing until the taint clears (the shadow
// resolves) or the instruction squashes.
//
// The package reproduces the implementation bug AMuLeT flagged (KV3,
// previously reported by DOLMA): tainted speculative *stores* are allowed
// to execute their address phase and install D-TLB entries, leaking the
// tainted address through the TLB state.
package stt

import (
	"github.com/sith-lab/amulet-go/internal/mem"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Config selects the implementation variant under test.
type Config struct {
	// PatchKV3 blocks tainted stores like tainted loads (DOLMA's fix).
	// The unpatched behaviour lets them execute and access the TLB.
	PatchKV3 bool
}

// STT implements uarch.Defense.
type STT struct {
	uarch.NoHooks
	cfg Config
	c   *uarch.Core
}

// New builds the defense.
func New(cfg Config) *STT { return &STT{cfg: cfg} }

// Name implements uarch.Defense.
func (s *STT) Name() string {
	if s.cfg.PatchKV3 {
		return "STT-Patched"
	}
	return "STT"
}

// Attach implements uarch.Defense.
func (s *STT) Attach(c *uarch.Core) { s.c = c }

// LoadAction implements uarch.Defense. Loads with untainted addresses
// execute normally (STT's access instructions are unrestricted); loads
// whose address operand is tainted are transmitters and must wait.
func (s *STT) LoadAction(ld *uarch.DynInst, spec bool) uarch.LoadAction {
	if ld.AddrDepTainted() {
		return uarch.LoadAction{Delay: true}
	}
	return uarch.LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
}

// StoreAction implements uarch.Defense. A store with a tainted address is
// a transmitter and should be blocked; the unpatched code base executes it
// anyway, performing the TLB access that KV3 observes.
func (s *STT) StoreAction(st *uarch.DynInst, spec bool) uarch.StoreAction {
	if st.AddrDepTainted() {
		if s.cfg.PatchKV3 {
			return uarch.StoreAction{Delay: true}
		}
		// BUG (KV3): tainted store executes and installs a TLB entry.
		return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
	}
	return uarch.StoreAction{TLBAccess: true, TLBInstall: true}
}

// OnLoadExecuted implements uarch.Defense: a load issued under a shadow
// returns tainted data (Futuristic mode: any unresolved older branch).
func (s *STT) OnLoadExecuted(ld *uarch.DynInst, _, _ mem.DataAccessResult) {
	ld.Tainted = ld.SpecAtIssue
}

// OnResult implements uarch.Defense: taint propagates through computation.
func (s *STT) OnResult(in *uarch.DynInst) {
	if in.In.Op.IsALU() {
		in.Tainted = in.TaintedOperand()
	}
}

// OnBranchResolved implements uarch.Defense: the untaint pass. When a
// branch resolves, loads that are no longer under any shadow turn safe and
// their taint clears; the clearing propagates forward through dependents
// in one in-order sweep over the ROB (the ROB is in program order, so a
// single pass reaches a fixpoint).
func (s *STT) OnBranchResolved(br *uarch.DynInst) {
	for _, in := range s.c.ROB() {
		if in.State == uarch.StSquashed || in.State == uarch.StCommitted {
			continue
		}
		switch {
		case in.IsLoad():
			if in.Tainted && !s.underShadowAfter(in, br) {
				in.Tainted = false
			}
		case in.In.Op.IsALU():
			if in.State == uarch.StDone || in.State == uarch.StExecuting {
				in.Tainted = in.TaintedOperand()
			}
		}
	}
}

// underShadowAfter reports whether in still sits under an unresolved older
// branch once br has resolved (br resolves this cycle but its state flips
// slightly later in the pipeline loop, so it is excluded explicitly).
func (s *STT) underShadowAfter(in *uarch.DynInst, br *uarch.DynInst) bool {
	for _, older := range s.c.ROB() {
		if older.Seq >= in.Seq {
			return false
		}
		if older == br || !older.IsBranch() {
			continue
		}
		if older.State != uarch.StDone && older.State != uarch.StCommitted {
			return true
		}
	}
	return false
}

// OnCommit implements uarch.Defense.
func (s *STT) OnCommit(in *uarch.DynInst) {
	in.Tainted = false // visibility point reached
}
