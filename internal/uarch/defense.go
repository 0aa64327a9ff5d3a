package uarch

import "github.com/sith-lab/amulet-go/internal/mem"

// LoadAction tells the core how a load may interact with the memory system
// when it issues. Defenses return restrictive actions for unsafe
// (speculative) loads and permissive ones for safe loads.
type LoadAction struct {
	// Delay keeps the load from issuing this cycle (STT blocks tainted
	// transmitters; SpecLFB stalls when the fill buffer is full).
	Delay bool
	// UpdateLRU refreshes cache replacement state on hits.
	UpdateLRU bool
	// Sink selects where a miss fill lands: the cache (normal install),
	// the line-fill buffer (SpecLFB), or nowhere (InvisiSpec's invisible
	// speculative buffer).
	Sink mem.FillSink
	// EvictOnMissFullSet reproduces InvisiSpec's UV1 implementation bug:
	// a replacement is triggered on a miss even when nothing installs.
	EvictOnMissFullSet bool
	// NoMSHR lets the miss bypass MSHR accounting entirely: the request
	// rides a side path that cannot delay regular requests (GhostMinion's
	// strictness ordering).
	NoMSHR bool
	// TLBInstall brings a missing translation into the D-TLB.
	TLBInstall bool
}

// StoreAction tells the core how a store behaves when its address resolves
// at execute (stores write data at commit regardless).
type StoreAction struct {
	// Delay keeps the store from issuing this cycle.
	Delay bool
	// TLBAccess performs the address translation at execute.
	TLBAccess bool
	// TLBInstall installs the translation on a D-TLB miss. A *speculative*
	// store doing this is exactly STT's KV3 leak.
	TLBInstall bool
	// PrefetchLine installs the store's cache line at execute (the
	// write-allocate-at-execute behaviour of CleanupSpec's code base, whose
	// missing cleanup metadata is UV3).
	PrefetchLine bool
}

// Defense is the interception interface for secure-speculation
// countermeasures. The baseline (insecure) CPU uses NopDefense. Hooks run
// synchronously inside the pipeline loop; defenses may freely inspect the
// Core and its memory hierarchy.
type Defense interface {
	// Name identifies the defense in reports.
	Name() string
	// Attach binds the defense to a core; called once at core construction.
	Attach(c *Core)
	// Reset clears per-test state (called for every new input).
	Reset()
	// LoadAction is consulted when a load is ready to issue. spec reports
	// whether the load sits under an unresolved branch shadow.
	LoadAction(ld *DynInst, spec bool) LoadAction
	// StoreAction is consulted when a store address is ready to resolve.
	StoreAction(st *DynInst, spec bool) StoreAction
	// OnLoadExecuted runs after a load accessed the memory system. res2 is
	// meaningful only for split accesses.
	OnLoadExecuted(ld *DynInst, res1, res2 mem.DataAccessResult)
	// OnStoreExecuted runs after a store resolved its address.
	OnStoreExecuted(st *DynInst, res1, res2 mem.DataAccessResult)
	// OnResult runs when any instruction finishes execution (taint
	// propagation).
	OnResult(in *DynInst)
	// OnBranchResolved runs when a conditional branch resolves, before any
	// squash triggered by it.
	OnBranchResolved(br *DynInst)
	// OnCommit runs when an instruction retires (InvisiSpec schedules
	// exposes here; SpecLFB releases fill-buffer lines).
	OnCommit(in *DynInst)
	// OnSquash runs after the core removed the squashed instructions from
	// the ROB, youngest first. The returned cycle count delays the fetch
	// redirect: CleanupSpec's rollback work sits on this critical path
	// (the timing channel behind unXpec / KV2).
	OnSquash(squashed []*DynInst) (extraCycles int)
	// OnFills runs once per cycle with the fills the hierarchy completed.
	// An empty batch must be a no-op: the core's quiescent-span skip elides
	// the call for cycles in which the hierarchy completes nothing.
	OnFills(fills []mem.CompletedFill)
	// OnTick runs once per cycle after fills (InvisiSpec drains its expose
	// queue here).
	OnTick()
	// TickIdle reports that OnTick has no pending work, i.e. skipping the
	// call would leave the defense in an identical state. The quiescent-span
	// skip (Core.skipQuiescentSpan) only elides cycles whose OnTick is
	// provably idle; defenses with no per-cycle work return true
	// unconditionally.
	TickIdle() bool
}

// NoHooks carries the no-op versions of every optional Defense hook. A
// defense embeds it and declares only Name, LoadAction, StoreAction and the
// hooks it acts on. Embedding adds one rule: a defense that overrides OnTick
// must also override TickIdle, or the quiescent-span skip elides its ticks.
type NoHooks struct{}

func (NoHooks) Attach(*Core)                                                         {}
func (NoHooks) Reset()                                                               {}
func (NoHooks) OnLoadExecuted(*DynInst, mem.DataAccessResult, mem.DataAccessResult)  {}
func (NoHooks) OnStoreExecuted(*DynInst, mem.DataAccessResult, mem.DataAccessResult) {}
func (NoHooks) OnResult(*DynInst)                                                    {}
func (NoHooks) OnBranchResolved(*DynInst)                                            {}
func (NoHooks) OnCommit(*DynInst)                                                    {}
func (NoHooks) OnSquash([]*DynInst) int                                              { return 0 }
func (NoHooks) OnFills([]mem.CompletedFill)                                          {}
func (NoHooks) OnTick()                                                              {}
func (NoHooks) TickIdle() bool                                                       { return true }

// NopDefense is the unprotected baseline: every speculative access hits the
// caches and TLB directly, which is what makes the stock out-of-order CPU
// leak Spectre-v1 and v4.
type NopDefense struct{ NoHooks }

// Name implements Defense.
func (NopDefense) Name() string { return "Baseline" }

// LoadAction implements Defense: loads always install.
func (NopDefense) LoadAction(*DynInst, bool) LoadAction {
	return LoadAction{UpdateLRU: true, Sink: mem.SinkCache, TLBInstall: true}
}

// StoreAction implements Defense: stores translate eagerly at execute.
func (NopDefense) StoreAction(*DynInst, bool) StoreAction {
	return StoreAction{TLBAccess: true, TLBInstall: true}
}
