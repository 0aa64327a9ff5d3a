package uarch

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/mem"
)

// ErrMaxCycles is returned by Run when the cycle budget is exhausted.
var ErrMaxCycles = errors.New("uarch: simulation exceeded MaxCycles")

// Core is the out-of-order processor. One Core is reused across the many
// inputs of a test program (the AMuLeT-Opt strategy): LoadTest installs a
// program, ResetForInput rewinds the pipeline and architectural state while
// deliberately preserving predictor and cache state, and ResetUarch
// restores a fresh micro-architectural context when required (Naive mode
// and violation validation).
type Core struct {
	cfg Config
	def Defense

	Hier *mem.Hierarchy
	BP   *BPred
	MD   *MDP
	Log  DebugLog

	prog *isa.Program
	sb   isa.Sandbox

	// Committed architectural state.
	regs  [isa.NumRegs]uint64
	flags isa.Flags
	img   *isa.Image

	// Pipeline state.
	cycle           uint64
	seq             uint64
	rob             []*DynInst
	renameReg       [isa.NumRegs]*DynInst
	renameFlags     *DynInst
	fetchIdx        int
	fetchStallUntil uint64
	fence           *DynInst
	lastILine       uint64
	haveILine       bool
	phantomPC       uint64

	stats       Stats
	accessOrder []AccessRec
	branchOrder []BranchRec

	// Scratch arena: buffers reused across the many inputs this core
	// executes, so the steady-state simulation loop allocates nothing.
	// dyn recycles DynInst structs, robBuf backs the rob window (twice
	// ROBSize, so the window slides and compacts amortized O(1) per
	// dispatch), and squashBuf holds the squash walk of one recovery.
	dyn       dynArena
	robBuf    []*DynInst
	squashBuf []*DynInst

	// robOff is the robBuf index of rob[0], so an instruction's ROB position
	// is RobIdx - robOff without scanning.
	robOff int

	// wbNext is the writeback walk's skip watermark: a conservative lower
	// bound on the earliest completion among executing instructions.
	wbNext uint64

	// Issue scoreboard: issue, writeback and the quiescent-span proof read
	// slot masks instead of walking the ROB. Each mask has one bit per
	// robBuf slot, in ceil(2*ROBSize/64) words sized once by NewCore, and
	// slot order is seq order, since the window occupies robBuf[robOff:]
	// contiguously. The full-ROB walks the scoreboard is specified against
	// (same visit order, same attemptIssue calls, same side effects) are
	// test oracles behind ref. The masks change only when the facts behind
	// them do:
	//
	//   - sbDone: slots whose instruction reached StDone/StCommitted. Set at
	//     writeback; committed slots below the window keep their bits until
	//     the next compaction, since a live consumer may still name them.
	//   - sbWaiting: dispatched (StDispatched) slots. Set at dispatch,
	//     cleared when the instruction starts executing.
	//   - sbBlocked: the waiting slots whose next attemptIssue is a pure,
	//     side-effect-free early return: a pending register/flags producer,
	//     or a fence away from the ROB head. sbWait[s] holds the producer
	//     slots such an attempt waits on; the slot is woken when the last
	//     of them reaches sbDone at writeback.
	//     A fence waits on no producer and is woken once commit has made it
	//     the ROB head; a store whose address phase completes is
	//     re-classified to wait on its data producer instead.
	//   - sbExec: executing slots, each completing at sbDoneAt[s].
	//
	// A squash clears the freed tail of robBuf out of every mask
	// (sbTruncate), and a window compaction re-derives all of them from
	// the renumbered ROB (sbRebuild), so a reused slot never inherits
	// state from the instruction that held it before.
	sbDone    []uint64
	sbWaiting []uint64
	sbBlocked []uint64
	sbExec    []uint64
	sbWait    []sbWaitSet
	sbDoneAt  []uint64

	// lastActCycle is the last cycle in which an instruction changed state
	// (issued, wrote back or committed). skipQuiescentSpan uses it to pay
	// for the span proof (a defense call and a fill-queue peek) only on
	// cycles that were themselves fully quiet — on a busy cycle the very
	// activity that just happened almost always seeds more next cycle, so
	// the proof would fail anyway.
	// Suppressing the attempt only forgoes a skip; it can never change
	// behaviour.
	lastActCycle uint64

	// cov, when non-nil, receives speculation-coverage features as the core
	// simulates (see coverage.go); lastMemClass threads the previous
	// data-access outcome into transition-edge features.
	cov          *Coverage
	lastMemClass uint64

	// noSkip pins the cycle-by-cycle loop, the test oracle of quiescent-span
	// skipping (quiescent.go); only export_test.go sets it.
	noSkip bool

	// ref, when non-nil, replaces the scoreboard's issue and writeback with
	// the full-ROB scans they are tested against; only export_test.go sets
	// it, together with noSkip.
	ref refStages

	ended    bool
	endCycle uint64
}

// NewCore builds a core with the given configuration and defense. It panics
// on invalid configuration; campaign entry points validate beforehand.
func NewCore(cfg Config, def Defense) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if def == nil {
		def = NopDefense{}
	}
	// The window and the scoreboard are sized here, once: robBuf holds
	// twice ROBSize slots, and each scoreboard mask one bit per slot.
	slots := 2 * cfg.ROBSize
	nw := (slots + 63) / 64
	masks := make([]uint64, 4*nw)
	c := &Core{
		cfg:       cfg,
		def:       def,
		Hier:      mem.NewHierarchy(cfg.Hier),
		BP:        NewBPred(cfg.BPred),
		MD:        NewMDP(),
		robBuf:    make([]*DynInst, slots),
		sbDone:    masks[:nw:nw],
		sbWaiting: masks[nw : 2*nw : 2*nw],
		sbBlocked: masks[2*nw : 3*nw : 3*nw],
		sbExec:    masks[3*nw:],
		sbWait:    make([]sbWaitSet, slots),
		sbDoneAt:  make([]uint64, slots),
	}
	def.Attach(c)
	return c
}

// refStages is the reference issue and writeback the scoreboard is
// specified against; export_test.go implements it with full-ROB scans.
type refStages interface {
	issue()
	writeback()
}

// Defense returns the attached defense.
func (c *Core) Defense() Defense { return c.def }

// Sandbox returns the sandbox of the loaded test program.
func (c *Core) Sandbox() isa.Sandbox { return c.sb }

// Program returns the loaded test program.
func (c *Core) Program() *isa.Program { return c.prog }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.cycle }

// ROB exposes the reorder buffer to defenses (oldest first).
func (c *Core) ROB() []*DynInst { return c.rob }

// Regs returns the committed register file.
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

// Image returns the committed data-memory image.
func (c *Core) Image() *isa.Image { return c.img }

// Stats returns the counters of the last run.
func (c *Core) Stats() Stats { return c.stats }

// EndCycle returns the cycle at which the last instruction committed.
func (c *Core) EndCycle() uint64 { return c.endCycle }

// AccessOrder returns the memory-access-order trace of the last run.
func (c *Core) AccessOrder() []AccessRec { return c.accessOrder }

// BranchOrder returns the branch-prediction-order trace of the last run.
func (c *Core) BranchOrder() []BranchRec { return c.branchOrder }

// LoadTest installs a test program. The micro-architectural state is left
// untouched; call ResetUarch for a fresh context.
func (c *Core) LoadTest(p *isa.Program, sb isa.Sandbox) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sb.Validate(); err != nil {
		return err
	}
	c.prog = p
	c.sb = sb
	// Pooled executors load same-geometry sandboxes program after program;
	// reusing the image (reset to zero memory, exactly as a fresh one
	// starts) keeps its recycled pages and the per-program path
	// allocation-free.
	if c.img != nil && c.img.Sandbox() == sb {
		c.img.Reset(isa.Fill{})
	} else {
		c.img = isa.NewImage(sb)
	}
	return nil
}

// ResetForInput rewinds the pipeline and loads the architectural input,
// preserving predictor, cache and TLB state — the AMuLeT-Opt behaviour of
// overwriting registers and sandbox memory in the running simulator. The
// committed memory image becomes a copy-on-write view of the input's:
// committed stores land in pages private to the core, recycled input after
// input, and the input itself is never modified (validation re-runs it).
func (c *Core) ResetForInput(in *isa.Input) {
	c.regs = in.Regs
	c.flags = isa.Flags{}
	c.img.ViewOf(&in.Mem)

	c.cycle = 0
	c.seq = 0
	c.rob = c.robBuf[:0]
	c.robOff = 0
	c.wbNext = 0
	c.lastActCycle = 0
	c.sbTruncate(0)
	c.dyn.reset()
	for i := range c.renameReg {
		c.renameReg[i] = nil
	}
	c.renameFlags = nil
	c.fetchIdx = 0
	c.fetchStallUntil = 0
	c.fence = nil
	c.haveILine = false
	c.phantomPC = 0
	c.stats = Stats{}
	c.accessOrder = c.accessOrder[:0]
	c.branchOrder = c.branchOrder[:0]
	c.ended = false
	c.endCycle = 0
	c.lastMemClass = 0
	c.Log.Reset()

	// MSHRs, port blocks and pending fills do not survive the checkpoint
	// restore between inputs: in-flight requests from the previous test
	// case are abandoned.
	c.Hier.MSHR.Reset()
	c.Hier.ClearPortBlock()
	c.Hier.DropPendingFills()
	c.def.Reset()
}

// ResetUarch restores a fresh micro-architectural context: predictors,
// caches, TLB, LFB. Used by AMuLeT-Naive before every input and by the
// violation-validation re-runs.
func (c *Core) ResetUarch() {
	c.BP.Reset()
	c.MD.Reset()
	c.Hier.Reset()
}

// UarchState is an opaque copy of the persistent micro-architectural
// context µ (caches, TLB, predictors).
type UarchState struct {
	hier mem.HierState
	bp   BPredState
	mdp  MDPState
}

// SaveUarchInto captures the current micro-architectural context into st,
// so violation validation can replay two inputs from the *same* context µ,
// as Definition 2.1 requires. It reuses st's buffers: the validation path
// saves a checkpoint per µarch-trace mismatch, so the executor hands the
// same state object back in instead of reallocating cache-sized copies
// every time.
func (c *Core) SaveUarchInto(st *UarchState) {
	c.Hier.SaveInto(&st.hier)
	c.BP.SaveInto(&st.bp)
	c.MD.SaveInto(&st.mdp)
}

// RestoreUarch rewinds the micro-architectural context to a saved state.
func (c *Core) RestoreUarch(st *UarchState) {
	c.Hier.Restore(&st.hier)
	c.BP.Restore(&st.bp)
	c.MD.Restore(&st.mdp)
}

// Run simulates the loaded test case to completion: it returns once the
// last dynamic instruction has committed (the m5exit point; in-flight fills
// and queued defense work are abandoned, as with m5exit in gem5).
func (c *Core) Run() error {
	if c.prog == nil {
		return errors.New("uarch: Run before LoadTest")
	}
	for {
		c.cycle++
		if c.cycle > c.cfg.MaxCycles {
			return fmt.Errorf("%w (%d)", ErrMaxCycles, c.cfg.MaxCycles)
		}
		fills := c.Hier.Tick(c.cycle)
		for _, f := range fills {
			if f.Sink == mem.SinkCache {
				c.Log.Add(c.cycle, f.Owner, 0, LogFill, f.LineAddr)
			}
		}
		c.def.OnFills(fills)
		c.def.OnTick()

		c.writeback()
		c.commit()
		c.issue()
		c.fetch()

		if len(c.rob) == 0 && c.fetchIdx >= c.prog.Len() {
			c.ended = true
			c.endCycle = c.cycle
			c.stats.Cycles = c.cycle
			// m5exit: the memory system drains in-flight fills (committed
			// stores' write-allocates and already-issued requests land),
			// while defense work queues — e.g. InvisiSpec's not-yet-issued
			// Expose requests — are abandoned. Without the drain, the
			// *timing* of the last instructions would decide which committed
			// stores become visible, which is not a leak gem5 exhibits.
			// Nothing but fills can act here, so the drain jumps straight
			// to each completion instead of ticking through empty cycles
			// (intervening cycles only call OnFills with an empty batch —
			// a no-op by contract).
			for c.Hier.PendingFills() > 0 && c.cycle < c.cfg.MaxCycles {
				next := c.Hier.NextReady()
				switch {
				case c.noSkip || next <= c.cycle+1:
					c.cycle++
				case next <= c.cfg.MaxCycles:
					c.cycle = next
				default:
					// The remaining fills land past the cap; tick out the
					// budget without walking it.
					c.cycle = c.cfg.MaxCycles
					continue
				}
				c.def.OnFills(c.Hier.Tick(c.cycle))
			}
			return nil
		}

		if !c.noSkip {
			c.skipQuiescentSpan()
		}
	}
}

// --- writeback & branch resolution ---

// startExec moves in to the executing state, completing at doneAt.
func (c *Core) startExec(in *DynInst, doneAt uint64) {
	in.State = StExecuting
	in.DoneAt = doneAt
	c.lastActCycle = c.cycle
	if doneAt < c.wbNext {
		c.wbNext = doneAt
	}
	w, b := slotBit(in.RobIdx)
	c.sbWaiting[w] &^= b
	c.sbExec[w] |= b
	c.sbDoneAt[in.RobIdx] = doneAt
}

// writeback is the walk over the executing slots: the same completions in
// the same (program) order as a walk of the whole ROB, without visiting the
// entries that are not executing. Every slot that completes joins sbDone,
// and the blocked slots whose last producer it was wake up.
func (c *Core) writeback() {
	// wbNext is a conservative lower bound on the earliest DoneAt of any
	// executing instruction (startExec lowers it, the walk re-derives it),
	// so the cycles spent waiting on one long-latency fill skip the walk
	// entirely. A stale-low bound after a squash merely costs an extra
	// no-op walk; the walk itself is side-effect-free for non-due entries,
	// so the skip cannot change behaviour.
	if c.cycle < c.wbNext {
		return
	}
	if c.ref != nil {
		c.ref.writeback()
		return
	}
	next := ^uint64(0)
	var woke uint64 // wake signature of the completed slots (sbWaitSet.sig)
walk:
	for w := range c.sbExec {
		for m := c.sbExec[w]; m != 0; m &= m - 1 {
			s := w<<6 | bits.TrailingZeros64(m)
			if at := c.sbDoneAt[s]; at > c.cycle {
				next = min(next, at)
				continue
			}
			b := uint64(1) << (s & 63)
			c.sbExec[w] &^= b
			c.sbDone[w] |= b
			woke |= b
			if c.complete(c.robBuf[s]) {
				// The squash removed every slot past this branch, and every
				// executing slot before it was visited: next is exact.
				break walk
			}
		}
	}
	c.wbNext = next
	c.sbWake(woke)
}

// complete writes back executing instruction in and reports whether it was
// a mispredicted branch whose resolution squashed the younger pipeline.
func (c *Core) complete(in *DynInst) bool {
	in.State = StDone
	c.lastActCycle = c.cycle
	if in.IsBranch() {
		return c.resolveBranch(in)
	}
	c.def.OnResult(in)
	return false
}

// sbWake clears the blocked bit of every blocked slot whose last pending
// producer is among the slots that just completed, whose wake signature is
// woke. A fence waits on no producer; issue wakes it when it reaches the
// ROB head.
func (c *Core) sbWake(woke uint64) {
	if woke == 0 {
		return
	}
	for w, m := range c.sbBlocked {
		for ; m != 0; m &= m - 1 {
			s := w<<6 | bits.TrailingZeros64(m)
			if ws := &c.sbWait[s]; ws.sig&woke != 0 && c.sbReady(ws) {
				c.sbBlocked[w] &^= 1 << (s & 63)
			}
		}
	}
}

// resolveBranch resolves a conditional branch and reports whether it
// squashed the pipeline.
func (c *Core) resolveBranch(br *DynInst) bool {
	br.Taken = br.Flags().Eval(br.In.Cond)
	actualIdx := br.Idx + 1
	if br.Taken {
		actualIdx = br.In.Target
	}
	c.def.OnBranchResolved(br)
	c.BP.Update(br.PC, br.HistAtPred, br.Taken, isa.PCOf(br.In.Target))
	c.def.OnResult(br)
	if br.Taken == br.PredTaken {
		return false
	}
	c.stats.Mispredicts++
	c.BP.Repair(br.HistAtPred, br.Taken)
	c.Log.Add(c.cycle, br.Seq, br.PC, LogSquash, isa.PCOf(actualIdx))
	c.cover(covSquash, br.PC, uint64(actualIdx))
	c.squashYoungerThan(br.Seq, actualIdx)
	return true
}

// squashYoungerThan removes every instruction younger than seq from the
// pipeline and redirects fetch to redirectIdx. Defense cleanup work delays
// the redirect (the unXpec timing channel).
func (c *Core) squashYoungerThan(seq uint64, redirectIdx int) {
	cut := len(c.rob)
	for i, in := range c.rob {
		if in.Seq > seq {
			cut = i
			break
		}
	}
	squashed := append(c.squashBuf[:0], c.rob[cut:]...)
	c.squashBuf = squashed
	c.rob = c.rob[:cut]
	if len(squashed) > 0 {
		// The truncated slots are the next ones robPush reuses: none of
		// their bits may leak onto the instructions that take them over.
		c.sbTruncate(squashed[0].RobIdx)
	}
	// Youngest first, matching squash walk order in hardware.
	for i, j := 0, len(squashed)-1; i < j; i, j = i+1, j-1 {
		squashed[i], squashed[j] = squashed[j], squashed[i]
	}
	for _, in := range squashed {
		in.State = StSquashed
	}
	c.stats.Squashed += uint64(len(squashed))
	c.rebuildRename()
	extra := 0
	if len(squashed) > 0 {
		extra = c.def.OnSquash(squashed)
		if extra > 0 {
			// Defense cleanup work on the squash path (CleanupSpec's
			// rollback): both the fact and its magnitude are signal.
			c.cover(covDefense, hookSquashDelay, depthBucket(extra))
		}
	}
	if c.fence != nil && c.fence.State == StSquashed {
		c.fence = nil
	}
	c.fetchIdx = redirectIdx
	c.fetchStallUntil = c.cycle + 1 + uint64(extra)
	c.haveILine = false
	c.phantomPC = 0
}

func (c *Core) rebuildRename() {
	for i := range c.renameReg {
		c.renameReg[i] = nil
	}
	c.renameFlags = nil
	for _, in := range c.rob {
		if in.State == StCommitted {
			continue
		}
		if in.WritesReg {
			c.renameReg[in.In.Dst] = in
		}
		if in.WritesFlags {
			c.renameFlags = in
		}
	}
}

// --- commit ---

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && len(c.rob) > 0; n++ {
		in := c.rob[0]
		if in.State != StDone {
			return
		}
		in.State = StCommitted
		c.lastActCycle = c.cycle
		if in.WritesReg {
			c.regs[in.In.Dst] = in.Result
		}
		if in.WritesFlags {
			c.flags = in.ResFlags
		}
		if in.IsStore() {
			c.img.Write(in.EffAddr, in.In.Size, in.Result)
			c.commitStoreCache(in)
			c.Log.Add(c.cycle, in.Seq, in.PC, LogCommitSt, in.EffAddr)
		}
		if in.IsLoad() && in.Bypassed {
			c.MD.TrainCorrect(in.PC)
		}
		c.def.OnCommit(in)
		if c.renameReg[in.In.Dst] == in {
			c.renameReg[in.In.Dst] = nil
		}
		if c.renameFlags == in {
			c.renameFlags = nil
		}
		if c.fence == in {
			c.fence = nil
		}
		c.rob = c.rob[1:]
		c.robOff++
		c.stats.Committed++
	}
}

// commitStoreCache performs the committed store's cache write (write
// allocate). Committed stores are architecturally safe, so every defense
// lets them install.
func (c *Core) commitStoreCache(st *DynInst) {
	opts := mem.DataAccessOpts{UpdateLRU: true, Sink: mem.SinkCache, Owner: st.Seq}
	c.accessLines(st, opts)
}

// accessLines performs the one or two line accesses of a memory operation.
func (c *Core) accessLines(in *DynInst, opts mem.DataAccessOpts) (res1, res2 mem.DataAccessResult) {
	c.stats.L1DAccesses++
	res1 = c.Hier.AccessData(c.cycle, in.EffAddr, opts)
	if !res1.L1Hit {
		c.stats.L1DMisses++
	}
	if c.cov != nil {
		// Transition edge: (previous outcome → this outcome, fill sink) at
		// this PC. Hit/miss patterns and where fills land are exactly the
		// state a cache side channel modulates.
		cls := memClass(res1.L1Hit, res1.L2Hit) | uint64(opts.Sink)<<2
		c.cover(covMemEdge, in.PC, c.lastMemClass<<5|cls)
		c.lastMemClass = cls
		if opts.Sink == mem.SinkLFB {
			c.cover(covLFB, in.PC, memClass(res1.L1Hit, res1.L2Hit))
		}
	}
	if res1.FillID != 0 {
		in.FillIDs = append(in.FillIDs, res1.FillID)
	}
	if in.IsSplit {
		c.stats.L1DAccesses++
		res2 = c.Hier.AccessData(c.cycle, in.Line2, opts)
		if !res2.L1Hit {
			c.stats.L1DMisses++
		}
		if res2.FillID != 0 {
			in.FillIDs = append(in.FillIDs, res2.FillID)
		}
	}
	return res1, res2
}

// --- issue / execute ---

// UnderShadow reports whether an older unresolved conditional branch exists
// for in: the speculation shadow that defenses key their protection on.
func (c *Core) UnderShadow(in *DynInst) bool {
	for _, older := range c.rob {
		if older.Seq >= in.Seq {
			return false
		}
		if older.IsBranch() && older.State != StDone && older.State != StCommitted {
			return true
		}
	}
	return false
}

// InFlightLoadsBefore calls fn for every in-flight (dispatched, executing
// or done) load older than seq, oldest first, stopping early when fn
// returns false. Defenses that scan the load queue (SpecLFB's
// isPrevNoUnsafe) use it.
func (c *Core) InFlightLoadsBefore(seq uint64, fn func(*DynInst) bool) {
	for _, in := range c.rob {
		if in.Seq >= seq {
			return
		}
		if !in.IsLoad() || in.State == StCommitted || in.State == StSquashed {
			continue
		}
		if !fn(in) {
			return
		}
	}
}

// issue is the walk over the waiting slots that are not blocked: the same
// attemptIssue calls in the same (program) order as a scan of the whole
// ROB, minus the visits to executing and done entries it would step over
// and the attempts on blocked entries that it would burn on a
// side-effect-free early return. A store the attempt leaves dispatched is
// re-classified: once its address resolved, it waits on its data producer.
func (c *Core) issue() {
	if c.ref != nil {
		c.ref.issue()
		return
	}
	if c.fence != nil && c.rob[0] == c.fence {
		// This cycle's commit may have made the fence the ROB head, which
		// lifts its serialization block. (Kept out of commit, whose inlined
		// body sits at the compiler's budget.)
		w, b := slotBit(c.fence.RobIdx)
		c.sbBlocked[w] &^= b
	}
	issued := 0
	for w := range c.sbWaiting {
		// Only the visited slot changes state inside the walk, and a
		// memory-order squash ends it, so the word can be read once.
		for m := c.sbWaiting[w] &^ c.sbBlocked[w]; m != 0; m &= m - 1 {
			if issued >= c.cfg.IssueWidth {
				return
			}
			s := w<<6 | bits.TrailingZeros64(m)
			in := c.robBuf[s]
			squashed := c.attemptIssue(in, s == c.robOff, &issued)
			if in.State == StDispatched && in.IsStore() {
				// The one attempt that can leave its instruction blocked:
				// every other kind visited here either issues or, like a
				// load stalled on the store queue or a defense delay,
				// stays unblocked, since its producers are still done.
				c.sbClassify(in)
			}
			if squashed {
				return // the squash rewrote the ROB; the scan stops here too
			}
		}
	}
}

// attemptIssue tries to advance one dispatched instruction through its next
// issue step, incrementing *issued per consumed slot. head reports whether
// the instruction is at the ROB head (fences serialize there). It reports
// whether a memory-order squash rewrote the pipeline. The issue walk only
// attempts unblocked slots, so a branch or ALU op attempted here has every
// register/flags producer done. The reference scan shares it, so the
// per-instruction issue semantics — and every defense/coverage side effect
// of an attempt — are identical by construction.
func (c *Core) attemptIssue(in *DynInst, head bool, issued *int) (squashed bool) {
	switch {
	case in.In.Op == isa.OpNop:
		c.startExec(in, c.cycle+1)
		*issued++
	case in.In.Op == isa.OpFence:
		// Serializing: executes only at the head of the ROB.
		if head {
			c.startExec(in, c.cycle+1)
			*issued++
		}
	case in.In.Op == isa.OpJmp:
		c.startExec(in, c.cycle+1)
		*issued++
	case in.IsBranch():
		c.startExec(in, c.cycle+uint64(c.cfg.LatBranch))
		*issued++
	case in.In.Op.IsALU():
		c.executeALU(in)
		*issued++
	case in.IsLoad():
		if c.tryIssueLoad(in) {
			*issued++
		}
	case in.IsStore():
		return c.tryIssueStore(in, issued)
	}
	return false
}

func (c *Core) executeALU(in *DynInst) {
	a := in.SrcVal(0)
	b := in.SrcVal(1)
	if in.In.UseImm || in.In.Op == isa.OpMovImm {
		b = uint64(in.In.Imm)
	}
	res, fl, writes := isa.EvalALU(in.In.Op, in.In.Cond, a, b, in.SrcVal(2), in.Flags())
	in.Result = res
	in.ResFlags = fl
	_ = writes // WritesReg was fixed at dispatch
	lat := c.cfg.LatALU
	if in.In.Op == isa.OpMul {
		lat = c.cfg.LatMul
	}
	c.startExec(in, c.cycle+uint64(lat))
}

// tryIssueLoad attempts to issue a load; it returns whether an issue slot
// was consumed.
func (c *Core) tryIssueLoad(ld *DynInst) bool {
	if p := ld.Deps[0]; p != nil && p.State != StDone && p.State != StCommitted {
		return false
	}
	if !ld.AddrValid {
		ld.EffAddr = c.sb.EffAddr(ld.SrcVal(0), ld.In.Imm)
		ld.AddrValid = true
		last := c.sb.ByteAddr(ld.EffAddr, ld.In.Size-1)
		l1, l2 := c.Hier.L1D.LineAddr(ld.EffAddr), c.Hier.L1D.LineAddr(last)
		if l1 != l2 {
			ld.IsSplit = true
			ld.Line2 = l2
		}
	}

	// Load/store queue search: forwarding, blocking, and Spectre-v4 bypass.
	fwd, fwdVal, blocked := c.searchStoreQueue(ld)
	if blocked {
		return false
	}

	spec := c.specAtIssue(ld, covSpecDepth, ld.PC)
	ld.SpecAtIssue = spec
	act := c.def.LoadAction(ld, spec)
	if c.cov != nil {
		if act.Delay {
			c.cover(covDefense, hookLoadDelay, ld.PC)
		}
		if act.Sink != mem.SinkCache {
			c.cover(covDefense, hookLoadSink|uint64(act.Sink)<<8, ld.PC)
		}
		if act.NoMSHR {
			c.cover(covDefense, hookLoadNoMSHR, ld.PC)
		}
		if act.EvictOnMissFullSet {
			c.cover(covDefense, hookLoadEvict, ld.PC)
		}
		if !act.UpdateLRU {
			c.cover(covDefense, hookLoadNoLRU, ld.PC)
		}
	}
	if act.Delay {
		return false
	}

	tlbLat, tlbHit := c.Hier.TranslateData(c.cycle, ld.EffAddr, act.TLBInstall)
	if !tlbHit {
		c.stats.TLBMisses++
		if act.TLBInstall {
			c.Log.Add(c.cycle, ld.Seq, ld.PC, LogTLBFill, ld.EffAddr)
		}
	}
	if c.cov != nil {
		tlbCls := uint64(0)
		if !tlbHit {
			tlbCls = 1
			if act.TLBInstall {
				tlbCls = 2 // miss that installed a translation
			}
		}
		c.cover(covTLB, ld.PC, tlbCls)
	}

	kind := LogLoad
	if spec {
		kind = LogSpecLd
	}
	c.Log.Add(c.cycle, ld.Seq, ld.PC, kind, ld.EffAddr)
	if ld.IsSplit {
		c.Log.Add(c.cycle, ld.Seq, ld.PC, LogSplit, c.Hier.L1D.LineAddr(ld.EffAddr))
		c.Log.Add(c.cycle, ld.Seq, ld.PC, LogSplit, ld.Line2)
	}
	c.accessOrder = append(c.accessOrder, AccessRec{PC: ld.PC, Addr: ld.EffAddr})

	if fwd {
		ld.Forwarded = true
		ld.LoadVal = fwdVal
		ld.Result = fwdVal
		c.startExec(ld, c.cycle+uint64(1+tlbLat))
		c.def.OnLoadExecuted(ld, mem.DataAccessResult{L1Hit: true, Latency: 1}, mem.DataAccessResult{})
		return true
	}

	opts := mem.DataAccessOpts{
		UpdateLRU:          act.UpdateLRU,
		Sink:               act.Sink,
		EvictOnMissFullSet: act.EvictOnMissFullSet,
		NoMSHR:             act.NoMSHR,
		Owner:              ld.Seq,
	}
	res1, res2 := c.accessLines(ld, opts)
	lat := res1.Latency
	if ld.IsSplit && res2.Latency > lat {
		lat = res2.Latency
	}
	ld.LoadVal = c.img.Read(ld.EffAddr, ld.In.Size)
	ld.Result = ld.LoadVal
	c.startExec(ld, c.cycle+uint64(tlbLat+lat))
	c.def.OnLoadExecuted(ld, res1, res2)
	return true
}

// searchStoreQueue scans older in-flight stores for the load, youngest
// first. It returns a forwarded value when the youngest older overlapping
// store fully covers the load, blocks the load when a partial overlap or a
// must-wait dependence prediction demands it, and otherwise lets the load
// bypass (recording that it did, for memory-order violation checks). The
// walk runs down the ROB from the load's own position, which RobIdx yields
// without a scan.
func (c *Core) searchStoreQueue(ld *DynInst) (fwd bool, val uint64, blocked bool) {
	ldBytes := spanOf(c.sb, ld.EffAddr, ld.In.Size)
	for i := ld.RobIdx - c.robOff - 1; i >= 0; i-- {
		st := c.rob[i]
		if !st.IsStore() || st.State == StCommitted {
			continue
		}
		if fwd, val, blocked, decided := c.searchStoreStep(ld, st, &ldBytes); decided {
			return fwd, val, blocked
		}
	}
	return false, 0, false
}

// searchStoreStep applies the forwarding/blocking rules of one older store
// to the load; decided reports that the walk can stop.
func (c *Core) searchStoreStep(ld, st *DynInst, ldBytes *byteSpan) (fwd bool, val uint64, blocked, decided bool) {
	if !st.AddrValid {
		if !c.MD.Bypass(ld.PC) {
			return false, 0, true, true
		}
		ld.Bypassed = true
		return false, 0, false, false
	}
	stBytes := spanOf(c.sb, st.EffAddr, st.In.Size)
	if !stBytes.overlaps(ldBytes) {
		return false, 0, false, false
	}
	dataReady := true
	if p := st.Deps[1]; p != nil && p.State != StDone && p.State != StCommitted {
		dataReady = false
	}
	if !dataReady || !stBytes.covers(ldBytes) {
		// Partial overlap or data not ready: wait for the store.
		return false, 0, true, true
	}
	ld.FwdFromSeq = st.Seq
	return true, extractForward(&stBytes, ldBytes, st.SrcVal(1)), false, true
}

// extractForward assembles the load value from the store's data bytes. The
// store covers the load, so the load's bytes are the store's from the
// load's ring distance to it on.
func extractForward(stBytes, ldBytes *byteSpan, stVal uint64) uint64 {
	d := (ldBytes.off - stBytes.off) & stBytes.mask
	return stVal >> (8 * d) & (^uint64(0) >> (64 - 8*ldBytes.n))
}

// tryIssueStore advances a store through its two execute phases: address
// resolution (with memory-order violation detection — the Spectre-v4
// squash) and data readiness. It reports whether a squash rewrote the ROB.
func (c *Core) tryIssueStore(st *DynInst, issued *int) (squashed bool) {
	if !st.AddrValid {
		if p := st.Deps[0]; p != nil && p.State != StDone && p.State != StCommitted {
			return false
		}
		spec := c.specAtIssue(st, covSpecDepth, st.PC|1<<16)
		st.SpecAtIssue = spec
		act := c.def.StoreAction(st, spec)
		if c.cov != nil {
			if act.Delay {
				c.cover(covDefense, hookStoreDelay, st.PC)
			}
			if act.PrefetchLine {
				c.cover(covDefense, hookStorePrefetch, st.PC)
			}
			if spec && act.TLBAccess && act.TLBInstall {
				c.cover(covDefense, hookStoreSpecTLB, st.PC)
			}
		}
		if act.Delay {
			return false
		}
		st.EffAddr = c.sb.EffAddr(st.SrcVal(0), st.In.Imm)
		st.AddrValid = true
		last := c.sb.ByteAddr(st.EffAddr, st.In.Size-1)
		l1, l2 := c.Hier.L1D.LineAddr(st.EffAddr), c.Hier.L1D.LineAddr(last)
		if l1 != l2 {
			st.IsSplit = true
			st.Line2 = l2
		}
		*issued++

		if act.TLBAccess {
			// The store translates at execute for the µarch side effects
			// only — TLB state is the KV3 leak surface — so the returned
			// latency is deliberately unused. It is architecturally
			// invisible in this model: a store produces no register value
			// (dependent loads wait on the *data* producer via forwarding,
			// never on translation), and its occupancy ends at commit,
			// which drains at CommitWidth regardless of how long the
			// address phase took. gem5's O3 hides the same latency in the
			// store queue. TestStoreTLBLatencyInvisible pins this: a
			// cold-TLB and a warm-TLB store retire on the same cycle while
			// the TLB-miss counters differ.
			_, tlbHit := c.Hier.TranslateData(c.cycle, st.EffAddr, act.TLBInstall)
			if !tlbHit {
				c.stats.TLBMisses++
				if act.TLBInstall {
					c.Log.Add(c.cycle, st.Seq, st.PC, LogTLBFill, st.EffAddr)
				}
			}
		}
		kind := LogStore
		if spec {
			kind = LogSpecSt
		}
		c.Log.Add(c.cycle, st.Seq, st.PC, kind, st.EffAddr)
		if st.IsSplit {
			c.Log.Add(c.cycle, st.Seq, st.PC, LogSplit, c.Hier.L1D.LineAddr(st.EffAddr))
			c.Log.Add(c.cycle, st.Seq, st.PC, LogSplit, st.Line2)
		}
		c.accessOrder = append(c.accessOrder, AccessRec{PC: st.PC, Addr: st.EffAddr, Store: true})

		if act.PrefetchLine {
			opts := mem.DataAccessOpts{UpdateLRU: true, Sink: mem.SinkCache, Owner: st.Seq}
			res1, res2 := c.accessLines(st, opts)
			c.def.OnStoreExecuted(st, res1, res2)
		} else {
			c.def.OnStoreExecuted(st, mem.DataAccessResult{}, mem.DataAccessResult{})
		}

		if c.checkMemOrderViolation(st) {
			return true
		}
	}
	// Data phase.
	if p := st.Deps[1]; p != nil && p.State != StDone && p.State != StCommitted {
		return false
	}
	st.Result = st.SrcVal(1)
	c.startExec(st, c.cycle+1)
	return false
}

// movVictim reports whether the younger load in violated memory ordering
// against store st: it executed, did not take its value from a store
// younger than st, and its resolved address overlaps st's bytes.
func (c *Core) movVictim(st, in *DynInst, stBytes *byteSpan) bool {
	if in.State != StExecuting && in.State != StDone {
		return false
	}
	if in.Forwarded && in.FwdFromSeq > st.Seq {
		return false // value came from a store younger than st: still correct
	}
	if !in.AddrValid {
		return false
	}
	ldBytes := spanOf(c.sb, in.EffAddr, in.In.Size)
	return stBytes.overlaps(&ldBytes)
}

// checkMemOrderViolation looks for younger loads that already executed and
// overlap the store whose address just resolved. Such loads consumed stale
// data (the Spectre-v4 window); the pipeline squashes from the oldest
// violating load and trains the dependence predictor.
func (c *Core) checkMemOrderViolation(st *DynInst) bool {
	stBytes := spanOf(c.sb, st.EffAddr, st.In.Size)
	var victim *DynInst
	for _, in := range c.rob {
		if in.Seq <= st.Seq || !in.IsLoad() {
			continue
		}
		if c.movVictim(st, in, &stBytes) {
			victim = in
			break // ROB is in program order: first match is the oldest
		}
	}
	if victim == nil {
		return false
	}
	c.stats.MemOrderViolations++
	c.MD.TrainViolation(victim.PC)
	c.Log.Add(c.cycle, victim.Seq, victim.PC, LogMOV, victim.EffAddr)
	c.cover(covSquash, victim.PC|1<<16, uint64(victim.Idx))
	c.squashYoungerThan(victim.Seq-1, victim.Idx)
	return true
}

// --- fetch & dispatch ---

func (c *Core) fetch() {
	if c.fetchStallUntil > c.cycle {
		return
	}
	if c.fence != nil {
		return // serialized until the fence commits
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchIdx >= c.prog.Len() {
			c.fetchPhantom()
			return
		}
		if len(c.rob) >= c.cfg.ROBSize {
			return
		}
		pc := isa.PCOf(c.fetchIdx)
		line := c.Hier.L1I.LineAddr(pc)
		if !c.haveILine || line != c.lastILine {
			lat := c.Hier.AccessInst(c.cycle, pc)
			c.lastILine = line
			c.haveILine = true
			if lat > c.cfg.Hier.LatL1 {
				c.fetchStallUntil = c.cycle + uint64(lat)
				return
			}
		}
		c.dispatch(c.fetchIdx)
		if c.fence != nil {
			return
		}
	}
}

// fetchPhantom models the fetch unit running ahead of the program end while
// the pipeline drains, speculatively pulling sequential lines into the
// L1I cache. The number of phantom lines depends on how long the drain
// takes, which is how timing differences become visible in the L1I-state
// trace (InvisiSpec KV1, CleanupSpec's unXpec KV2).
func (c *Core) fetchPhantom() {
	if len(c.rob) == 0 {
		return
	}
	if c.phantomPC == 0 {
		c.phantomPC = c.Hier.L1I.LineAddr(isa.PCOf(c.prog.Len())) + uint64(c.cfg.Hier.L1I.LineSize)
	}
	lat := c.Hier.AccessInst(c.cycle, c.phantomPC)
	c.phantomPC += uint64(c.cfg.Hier.L1I.LineSize)
	c.fetchStallUntil = c.cycle + uint64(lat)
}

// robPush appends to the ROB window. The window slides through robBuf as
// commit pops the front (c.rob = c.rob[1:]); when it reaches the end of the
// backing array the live entries are compacted back to the front, which —
// with the buffer sized at twice ROBSize — costs amortized O(1) pointer
// moves per dispatch and never reallocates. Each entry's RobIdx tracks its
// robBuf index (position in c.rob is RobIdx - robOff), kept current here
// through compaction; commit advances robOff and squash truncation leaves
// indices untouched, so no consumer ever scans for a position.
func (c *Core) robPush(d *DynInst) {
	if len(c.rob) == cap(c.rob) {
		n := copy(c.robBuf, c.rob)
		c.rob = c.robBuf[:n]
		c.robOff = 0
		for i, in := range c.rob {
			in.RobIdx = i
		}
		c.sbRebuild()
	}
	d.RobIdx = c.robOff + len(c.rob)
	c.rob = append(c.rob, d)
}

func (c *Core) dispatch(idx int) {
	in := c.prog.Insts[idx]
	c.seq++
	d := c.dyn.alloc()
	d.Seq, d.Idx, d.In, d.PC = c.seq, idx, in, isa.PCOf(idx)

	readDep := func(slot int, r isa.Reg) {
		if p := c.renameReg[r]; p != nil {
			d.Deps[slot] = p
		} else {
			d.Vals[slot] = c.regs[r]
		}
	}
	switch {
	case in.Op == isa.OpMovImm:
		d.WritesReg = true
	case in.Op == isa.OpCmov:
		readDep(0, in.Src1)
		readDep(2, in.Dst)
		d.WritesReg = true
	case in.Op == isa.OpCmp:
		readDep(0, in.Src1)
		if !in.UseImm {
			readDep(1, in.Src2)
		}
	case in.Op.IsALU():
		readDep(0, in.Src1)
		if !in.UseImm {
			readDep(1, in.Src2)
		}
		d.WritesReg = true
	case in.Op == isa.OpLoad:
		readDep(0, in.Src1)
		d.WritesReg = true
	case in.Op == isa.OpStore:
		readDep(0, in.Src1)
		readDep(1, in.Src2)
	}
	if in.ReadsFlags() {
		if c.renameFlags != nil {
			d.FlagsDep = c.renameFlags
		} else {
			d.FlagsVal = c.flags
		}
	}
	d.WritesFlags = in.Op.SetsFlags()

	next := idx + 1
	switch in.Op {
	case isa.OpBranch:
		pred, hist := c.BP.Predict(d.PC)
		d.PredTaken = pred
		d.HistAtPred = hist
		if pred {
			next = in.Target
		}
		c.branchOrder = append(c.branchOrder, BranchRec{PC: d.PC, PredTaken: pred, Target: isa.PCOf(in.Target)})
	case isa.OpJmp:
		next = in.Target
		c.branchOrder = append(c.branchOrder, BranchRec{PC: d.PC, PredTaken: true, Target: isa.PCOf(in.Target)})
	case isa.OpFence:
		c.fence = d
	}

	if d.WritesReg {
		c.renameReg[in.Dst] = d
	}
	if d.WritesFlags {
		c.renameFlags = d
	}
	c.robPush(d)
	// After robPush: a window compaction in there renumbers the producers'
	// slots the wait set refers to.
	w, b := slotBit(d.RobIdx)
	c.sbWaiting[w] |= b
	c.sbClassify(d)
	c.stats.Fetched++
	c.fetchIdx = next
}

// slotBit returns the scoreboard mask word and bit of robBuf slot s.
func slotBit(s int) (int, uint64) { return s >> 6, 1 << (s & 63) }

// sbWaitSet is what a blocked slot's next issue attempt waits on: the
// slots of its pending producers, at most the three register operands and
// the flags, and their wake signature — the OR of 1<<(slot&63) over them.
// Writeback wakes a slot only when the signature meets that of the slots
// just completed. The signature is exact while the window spans at most 64
// slots, since a contiguous run of 64 slots maps onto distinct bits; past
// that, a shared bit only costs a look at the producers' done bits.
type sbWaitSet struct {
	sig  uint64
	prod [4]int32
	n    int32
}

// add records producer p while p has not completed.
func (ws *sbWaitSet) add(p *DynInst) {
	if p != nil && p.State != StDone && p.State != StCommitted {
		ws.prod[ws.n] = int32(p.RobIdx)
		ws.sig |= 1 << (p.RobIdx & 63)
		ws.n++
	}
}

// sbReady reports whether every producer in ws has reached sbDone.
func (c *Core) sbReady(ws *sbWaitSet) bool {
	for _, p := range ws.prod[:ws.n] {
		if c.sbDone[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// sbClassify records which pending producers the next issue attempt of
// dispatched instruction in waits on, and whether that attempt is a pure
// block, kept as a bit: a branch or ALU op waits on every register/flags
// producer, a load on its address producer, a store on its address
// producer and then, once the address resolved, on its data producer; a
// fence away from the ROB head waits on no producer but is blocked all the
// same. Producers already done or committed stay done for as long as in is
// live, so they need no entry, and a pending one can only complete
// (squashing a producer squashes in with it).
func (c *Core) sbClassify(in *DynInst) {
	ws := &c.sbWait[in.RobIdx]
	*ws = sbWaitSet{}
	switch {
	case in.IsBranch(), in.In.Op.IsALU():
		for _, p := range in.Deps {
			ws.add(p)
		}
		ws.add(in.FlagsDep)
	case in.IsLoad():
		ws.add(in.Deps[0])
	case in.IsStore() && in.AddrValid:
		ws.add(in.Deps[1])
	case in.IsStore():
		ws.add(in.Deps[0])
	}
	w, b := slotBit(in.RobIdx)
	if ws.n != 0 || in.In.Op == isa.OpFence && in != c.rob[0] {
		c.sbBlocked[w] |= b
	} else {
		c.sbBlocked[w] &^= b
	}
}

// sbTruncate clears robBuf slot from, and every slot above it, out of every
// scoreboard mask.
func (c *Core) sbTruncate(from int) {
	keep := uint64(1)<<(from&63) - 1
	for w := from >> 6; w < len(c.sbDone); w++ {
		c.sbDone[w] &= keep
		c.sbWaiting[w] &= keep
		c.sbBlocked[w] &= keep
		c.sbExec[w] &= keep
		keep = 0
	}
}

// sbRebuild re-derives the scoreboard after a window compaction renumbered
// every live RobIdx: each mask from the live entries' states, and each
// dispatched entry's wait set and blocked bit from its producer pointers.
// Slots of committed entries that left the ROB are dropped — any wait bit
// that named one was recomputed away, because its producer is committed.
func (c *Core) sbRebuild() {
	c.sbTruncate(0)
	for _, in := range c.rob {
		w, b := slotBit(in.RobIdx)
		switch in.State {
		case StDone, StCommitted:
			c.sbDone[w] |= b
		case StExecuting:
			c.sbExec[w] |= b
			c.sbDoneAt[in.RobIdx] = in.DoneAt
		case StDispatched:
			c.sbWaiting[w] |= b
			c.sbClassify(in)
		}
	}
}
