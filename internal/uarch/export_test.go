package uarch

import "fmt"

// The reference paths the pipeline is specified against are test oracles:
// selectors on the Core that only this file can reach, so no configuration
// of a shipped binary runs them.

// UseScanIssue makes the core issue by the full-ROB scan — the walk NewCore
// itself picks for windows the scoreboard's two mask words cannot cover —
// so the scoreboard walk can be compared against it at the same geometry.
// Call it before the first ResetForInput.
func (c *Core) UseScanIssue() { c.sbOn = false }

// ScoreboardOn reports whether the core issues by the scoreboard walk.
func (c *Core) ScoreboardOn() bool { return c.sbOn }

// UseCycleByCycle makes Run tick through every cycle instead of skipping
// quiescent spans (quiescent.go).
func (c *Core) UseCycleByCycle() { c.noSkip = true }

// CheckScoreboard recomputes the scoreboard from the ROB — sbDone, sbWaiting
// and sbExec from the entries' states, sbBlocked from issueBlockedPure,
// each executing slot's completion cycle from its DoneAt — and reports the
// first place the maintained state differs. Inside the window every mask
// must match exactly; past its end every bit must be clear (a squash or a
// compaction freed those slots); below it only done bits may remain, of
// committed entries a live consumer may still name. It also checks that the
// wait set of every dispatched branch and ALU op is done exactly when the
// per-producer walk says its dependencies are (depsDone relies on it), and
// that wbNext is a lower bound on every DoneAt. Call it between cycles,
// e.g. from a defense's OnTick; it is a no-op when the core issues by the
// scan.
func (c *Core) CheckScoreboard() error {
	if !c.sbOn {
		return nil
	}
	var done, waiting, blocked, exec, window [2]uint64
	for _, in := range c.rob {
		s := in.RobIdx
		w, b := slotBit(s)
		window[w] |= b
		switch in.State {
		case StDone, StCommitted:
			done[w] |= b
		case StExecuting:
			exec[w] |= b
			if c.sbDoneAt[s] != in.DoneAt {
				return fmt.Errorf("slot %d (seq %d): sbDoneAt %d, DoneAt %d", s, in.Seq, c.sbDoneAt[s], in.DoneAt)
			}
			if c.wbNext > in.DoneAt {
				return fmt.Errorf("wbNext %d is past slot %d's DoneAt %d", c.wbNext, s, in.DoneAt)
			}
		case StDispatched:
			waiting[w] |= b
			if c.issueBlockedPure(in) {
				blocked[w] |= b
			}
			if in.IsBranch() || in.In.Op.IsALU() {
				on := c.sbWait[s]
				ready := (on[0]&^c.sbDone[0])|(on[1]&^c.sbDone[1]) == 0
				if ready != in.DepsDone() {
					return fmt.Errorf("slot %d (seq %d, %v): wait set done %v, DepsDone %v", s, in.Seq, in.In, ready, in.DepsDone())
				}
			}
		}
	}
	var below [2]uint64
	for s := 0; s < c.robOff; s++ {
		w, b := slotBit(s)
		below[w] |= b
	}
	for w := range window {
		outside := ^window[w]
		for _, m := range []struct {
			name      string
			got, want uint64
			mayBelow  bool
		}{
			{"sbDone", c.sbDone[w], done[w], true},
			{"sbWaiting", c.sbWaiting[w], waiting[w], false},
			{"sbBlocked", c.sbBlocked[w], blocked[w], false},
			{"sbExec", c.sbExec[w], exec[w], false},
		} {
			stray := m.got & outside
			if m.mayBelow {
				stray &^= below[w]
			}
			if m.got&window[w] != m.want || stray != 0 {
				return fmt.Errorf("%s word %d: %#016x, want %#016x in window %#016x (robOff %d, %d entries)",
					m.name, w, m.got, m.want, window[w], c.robOff, len(c.rob))
			}
		}
	}
	return nil
}
