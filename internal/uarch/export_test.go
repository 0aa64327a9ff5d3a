package uarch

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// The reference paths the pipeline is specified against are test oracles:
// selectors on the Core that only this file can reach, so no configuration
// of a shipped binary runs them.

// UseScanIssue makes the core the reference pipeline the scoreboard is
// specified against: issue and writeback walk the full ROB, and Run ticks
// through every cycle (UseCycleByCycle), so no span proof is involved.
// Call it before the first ResetForInput.
func (c *Core) UseScanIssue() {
	c.ref = scanStages{c}
	c.noSkip = true
}

// UseCycleByCycle makes Run tick through every cycle instead of skipping
// quiescent spans (quiescent.go).
func (c *Core) UseCycleByCycle() { c.noSkip = true }

// scanStages is the full-ROB scan issue and writeback. It neither reads the
// scoreboard's masks nor keeps its completions in them; with the span proof
// off as well, nothing on a scan core reads them.
type scanStages struct{ c *Core }

// writeback walks the whole ROB and completes every executing entry whose
// DoneAt has come, deriving wbNext from the ones still executing.
func (s scanStages) writeback() {
	c := s.c
	next := ^uint64(0)
	for i := 0; i < len(c.rob); i++ {
		in := c.rob[i]
		if in.State != StExecuting {
			continue
		}
		if in.DoneAt > c.cycle {
			if in.DoneAt < next {
				next = in.DoneAt
			}
			continue
		}
		if c.complete(in) {
			// Squash truncated the ROB; younger entries are gone, and
			// the walk did not finish deriving the bound.
			c.wbNext = 0
			return
		}
	}
	c.wbNext = next
}

// issue walks the whole ROB and attempts every dispatched entry, oldest
// first, until IssueWidth slots are consumed. A branch or ALU op whose
// producers are not all done is stepped over, which is the attempt's
// side-effect-free early return.
func (s scanStages) issue() {
	c := s.c
	issued := 0
	for i := 0; i < len(c.rob) && issued < c.cfg.IssueWidth; i++ {
		in := c.rob[i]
		if in.State != StDispatched {
			continue
		}
		if (in.IsBranch() || in.In.Op.IsALU()) && !in.DepsDone() {
			continue
		}
		if c.attemptIssue(in, i == 0, &issued) {
			return // memory-order squash rewrote the ROB
		}
	}
}

// DepsDone reports whether every register/flags dependency has produced its
// result: the per-producer question the scoreboard's wait sets answer.
func (d *DynInst) DepsDone() bool {
	for _, p := range d.Deps {
		if p != nil && p.State != StDone && p.State != StCommitted {
			return false
		}
	}
	if d.FlagsDep != nil && d.FlagsDep.State != StDone && d.FlagsDep.State != StCommitted {
		return false
	}
	return true
}

// issueBlockedPure reports whether the issue walk's attempt on dispatched
// instruction in is a side-effect-free early return that stays one for
// every cycle of a span in which no writeback or commit occurs. It mirrors
// attemptIssue case by case; anything that would issue, or whose
// re-attempt has observable side effects (address resolution, store-queue
// search, defense and coverage hooks), returns false. The scoreboard keeps
// its answers as sbBlocked bits (sbClassify).
func (c *Core) issueBlockedPure(in *DynInst) bool {
	switch {
	case in.In.Op == isa.OpNop, in.In.Op == isa.OpJmp:
		return false // always issue
	case in.In.Op == isa.OpFence:
		return in != c.rob[0] // serialized: issues only at the head
	case in.IsBranch(), in.In.Op.IsALU():
		return !in.DepsDone()
	case in.IsLoad():
		p := in.Deps[0]
		return p != nil && p.State != StDone && p.State != StCommitted
	case in.IsStore():
		p := in.Deps[0]
		if in.AddrValid {
			p = in.Deps[1] // data phase
		}
		return p != nil && p.State != StDone && p.State != StCommitted
	}
	return false
}

// CheckScoreboard recomputes the scoreboard from the ROB — sbDone,
// sbWaiting and sbExec from the entries' states, sbBlocked from
// issueBlockedPure, each executing slot's completion cycle from its
// DoneAt — and reports the first place the maintained state differs.
// Inside the window every mask must match exactly; past its end every bit
// must be clear (a squash or a compaction freed those slots); below it only
// done bits may remain, of committed entries a live consumer may still
// name. It also checks every dispatched slot's wait set: its signature is
// the OR of its producers' bits, and, for every kind but a fence, its
// producers are all done exactly when the attempt is not a pure block
// (issue relies on it to attempt branch and ALU ops without asking their
// producers). And wbNext must be a lower bound on every DoneAt. Call it
// between cycles of a core that issues by the scoreboard, e.g. from a
// defense's OnTick.
func (c *Core) CheckScoreboard() error {
	nw := len(c.sbDone)
	done, waiting, blocked := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
	exec, window, below := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
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
			pure := c.issueBlockedPure(in)
			if pure {
				blocked[w] |= b
			}
			ws := &c.sbWait[s]
			var sig uint64
			for _, p := range ws.prod[:ws.n] {
				sig |= 1 << (p & 63)
			}
			if sig != ws.sig {
				return fmt.Errorf("slot %d (seq %d): wake signature %#x, producers %v give %#x", s, in.Seq, ws.sig, ws.prod[:ws.n], sig)
			}
			if ready := c.sbReady(ws); in.In.Op != isa.OpFence && ready == pure {
				return fmt.Errorf("slot %d (seq %d, %v): wait set done %v, pure block %v", s, in.Seq, in.In, ready, pure)
			}
		}
	}
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

// Save captures the predictor state.
func (b *BPred) Save() *BPredState {
	st := &BPredState{}
	b.SaveInto(st)
	return st
}

// Save captures the predictor state.
func (m *MDP) Save() *MDPState {
	st := &MDPState{}
	m.SaveInto(st)
	return st
}

// refSpan is the byte-set form of byteSpan that the ring arithmetic
// replaced, kept as its oracle: an access is the set of its wrapped sandbox
// offsets, and overlap, cover and forwarding compare the sets byte by byte.
type refSpan struct {
	off [8]uint64
	n   int
}

func refSpanOf(sb isa.Sandbox, va uint64, size uint8) refSpan {
	var s refSpan
	s.n = int(size)
	for k := uint8(0); k < size; k++ {
		s.off[k] = (sb.ByteAddr(va, k) - isa.DataBase) & sb.Mask()
	}
	return s
}

func (a *refSpan) overlaps(b *refSpan) bool {
	for i := 0; i < a.n; i++ {
		for j := 0; j < b.n; j++ {
			if a.off[i] == b.off[j] {
				return true
			}
		}
	}
	return false
}

func (a *refSpan) covers(b *refSpan) bool {
	for j := 0; j < b.n; j++ {
		found := false
		for i := 0; i < a.n; i++ {
			if a.off[i] == b.off[j] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func refExtractForward(stBytes, ldBytes *refSpan, stVal uint64) uint64 {
	var v uint64
	for k := 0; k < ldBytes.n; k++ {
		for j := 0; j < stBytes.n; j++ {
			if stBytes.off[j] == ldBytes.off[k] {
				v |= uint64(byte(stVal>>(8*j))) << (8 * k)
				break
			}
		}
	}
	return v
}
