package uarch

// Quiescent-span cycle skipping.
//
// An idle cycle is cheap — a handful of comparisons — but campaigns pay for
// every one of them: a single L2-missing load under a fenced pipeline burns
// tens of cycles in which fetch is stalled, nothing issues, nothing writes
// back and nothing commits, and the per-cycle loop overhead (Tick, empty
// OnFills/OnTick, four stage calls that immediately return) sat at the top
// of Core.Run's profile.
//
// skipQuiescentSpan removes those cycles wholesale. At the end of a cycle it
// tries to prove that every stage of every following cycle, up to some bound,
// would be a complete no-op — not merely cheap, but free of any state change
// or observable side effect — and advances c.cycle to one before the bound so
// the loop's increment lands exactly on the first cycle that can act. The
// proof is conservative: whenever a stage *might* act, the span ends there
// (or no skip happens at all), so the skipped execution is bit-identical to
// the cycle-by-cycle loop by construction. That loop survives as a test
// oracle (Core.noSkip, set only through export_test.go), and
// TestQuiescentSkipBitIdentity compares the two across every defense.
//
// The per-stage no-op proofs:
//
//   - Memory: Hier.Tick completes nothing before Hier.NextReady(), and
//     OnFills with an empty batch is a no-op by interface contract. MSHR,
//     LFB and port occupancy are pure functions of the cycle — they have no
//     per-cycle tick to miss.
//   - Defense: def.TickIdle() proves OnTick has no pending work, and no
//     hook that could create work (commit, branch resolution, squash) runs
//     inside the span.
//   - Commit: the ROB head is not done, and nothing inside the span can
//     complete it (writeback is bounded below).
//   - Issue: every dispatched instruction is blocked in a way the issue
//     walk skips with a side-effect-free early return — a pending
//     register/flags producer, or a fence away from the ROB head. Stalls
//     with observable re-attempt side effects (store-queue blocks, defense
//     delays — they invoke hooks and coverage) forbid skipping entirely.
//     Blocked-on-producer is stable: only a writeback can release it, and
//     writebacks bound the span; blocked-away-from-head is stable because
//     nothing commits. sbBlocked holds exactly these cases, so the proof is
//     one mask test: every waiting slot is a blocked slot.
//   - Writeback: the span ends at wbNext, a lower bound on the earliest
//     executing DoneAt (a stale-low value only shortens the skip).
//   - Fetch: blocked by an uncommitted fence for the whole span, stalled
//     until fetchStallUntil (which then bounds the span), or pure-blocked on
//     a full ROB that cannot drain inside the span. An active fetch inside
//     the program forbids skipping.
//   - Phantom fetch: past the program end, fetch only pulls sequential
//     lines into the L1I (fetchPhantom), which no other stage reads inside
//     the span, and nothing can redirect it there (no squash, no commit).
//     So the span does not end at it: skipPhantomFetches performs each
//     access in closed form at the cycle fetch would have, and an L1I miss's
//     scheduled fill re-bounds the span, since its completion is a Tick that
//     acts.
//
// MaxCycles caps every span at MaxCycles+1 so a wedged pipeline trips the
// runaway guard at the same cycle value the reference loop would.

// skipQuiescentSpan advances c.cycle to just before the next cycle in which
// any pipeline stage can act, when every intervening cycle is provably a
// no-op. Called at the end of a cycle, after all stages ran.
func (c *Core) skipQuiescentSpan() {
	// Cheapest, most-discriminating rejections first: plain field reads, so
	// the common can't-skip case costs a couple of loads before the
	// interface call and the fill-queue peek below.
	if len(c.rob) > 0 && c.rob[0].State == StDone {
		return // the head would commit next cycle
	}
	if c.lastActCycle == c.cycle {
		// Something issued, wrote back or committed this cycle, so the
		// proof below would almost certainly fail — the new activity seeds
		// next cycle's. Spend the proof only on cycles that were themselves
		// quiet; a span entered one cycle late is still skipped from its
		// second cycle on, and forgoing a skip is always sound.
		return
	}
	for w, m := range c.sbWaiting {
		if m&^c.sbBlocked[w] != 0 {
			return // a dispatched instruction's next attempt can act
		}
	}
	if !c.def.TickIdle() {
		return
	}
	bound := c.Hier.NextReady()
	if m := c.cfg.MaxCycles + 1; m < bound {
		bound = m
	}
	phantom := false
	if c.fence == nil {
		switch {
		case c.fetchIdx >= c.prog.Len():
			// Past the program end (the ROB is not empty, or Run would
			// have ended): only phantom fetches act, emulated below.
			phantom = true
		case c.fetchStallUntil > c.cycle+1:
			if c.fetchStallUntil < bound {
				bound = c.fetchStallUntil
			}
		case c.fetchIdx < c.prog.Len() && len(c.rob) >= c.cfg.ROBSize:
			// ROB full: fetch early-returns, and the window cannot drain
			// inside the span because nothing commits.
		default:
			return // fetch acts next cycle
		}
	}
	bound = min(bound, c.wbNext)
	if phantom {
		bound = c.skipPhantomFetches(bound)
	}
	if bound > c.cycle+1 {
		c.cycle = bound - 1
	}
}

// skipPhantomFetches performs, in order, the phantom fetches fetch would
// make in the cycles before bound, each at its own cycle, and returns the
// bound cut to the first cycle at which a fill one of them scheduled is
// applied. A fill due at cycle k or earlier is applied by Tick(k+1) at the
// earliest, since the access at k comes after that cycle's Tick.
func (c *Core) skipPhantomFetches(bound uint64) uint64 {
	for k := max(c.cycle+1, c.fetchStallUntil); k < bound; k = max(k+1, c.fetchStallUntil) {
		c.cycle = k
		c.fetchPhantom()
		bound = min(bound, max(c.Hier.NextReady(), k+1))
	}
	return bound
}
