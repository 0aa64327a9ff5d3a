package mem

import (
	"cmp"
	"slices"
	"testing"
)

// TestFillQueueRandomWalk randomly exercises the pending-fill heap through
// the public surface against the plainest possible model — a slice kept
// sorted by (ready cycle, id), whose due prefix is re-sorted by id on every
// tick. Fills are scheduled inside the 128-cycle span a single access can
// reach, across its edge (MSHR waits, port blocks), and at or behind the
// clock; fills are cancelled and dropped; the clock advances by small steps
// and by jumps to NextReady. Every tick must complete the model's batch with
// the same contents in the same id order, and NextReady and PendingFills must
// agree after every step.
func TestFillQueueRandomWalk(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	var model []pendingFill // sorted by (at, id)

	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}

	now := uint64(0)
	var live []uint64
	check := func(step int) {
		t.Helper()
		want := NoFillPending
		if len(model) > 0 {
			want = model[0].at
		}
		if got := h.NextReady(); got != want {
			t.Fatalf("step %d: NextReady %d, want %d", step, got, want)
		}
		if got := h.PendingFills(); got != len(model) {
			t.Fatalf("step %d: PendingFills %d, want %d", step, got, len(model))
		}
	}
	tick := func(step int, to uint64) {
		t.Helper()
		now = to
		n := 0
		for n < len(model) && model[n].at <= now {
			n++
		}
		due := slices.Clone(model[:n])
		model = model[n:]
		slices.SortFunc(due, func(a, b pendingFill) int { return cmp.Compare(a.id, b.id) })
		var want []CompletedFill
		for _, f := range due {
			if !f.cancelled {
				want = append(want, CompletedFill{ID: f.id, LineAddr: f.lineAddr, Sink: f.sink, Owner: f.owner})
			}
		}
		got := h.Tick(now)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d cycle %d: batch\n got  %+v\n want %+v", step, now, got, want)
		}
	}

	for step := 0; step < 8000; step++ {
		switch next(12) {
		case 0, 1, 2, 3, 4, 5: // schedule
			var at uint64
			switch next(5) {
			case 0, 1:
				at = now + 1 + next(100) // well inside one access's reach
			case 2:
				at = now + 100 + next(80) // straddles the 128-cycle edge
			case 3:
				at = now + next(2) // at or one past the clock
			case 4:
				at = now - min(now, next(3)) // at or behind the clock
			}
			f := pendingFill{at: at, lineAddr: next(1<<14) * 64, sink: SinkNone, owner: next(64)}
			f.id = h.ScheduleFill(f.at, f.lineAddr, f.sink, f.owner)
			model = append(model, f)
			slices.SortFunc(model, func(a, b pendingFill) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
			})
			live = append(live, f.id)
		case 6: // cancel a fill (it stays queued but never applies)
			if len(live) > 0 {
				id := live[next(uint64(len(live)))]
				h.CancelFill(id)
				for i := range model {
					if model[i].id == id {
						model[i].cancelled = true
					}
				}
			}
		case 7: // drop everything (the input-reset path)
			if next(8) == 0 {
				h.DropPendingFills()
				model = model[:0]
				live = live[:0]
			}
		case 8, 9, 10: // advance a few cycles
			tick(step, now+1+next(10))
		case 11: // jump straight to the next completion
			if at := h.NextReady(); at != NoFillPending {
				tick(step, at)
			}
		}
		check(step)
	}
	for h.PendingFills() > 0 {
		at := h.NextReady()
		if at == NoFillPending {
			t.Fatal("pending fills but no ready time")
		}
		tick(-1, at)
		check(-1)
	}
}
