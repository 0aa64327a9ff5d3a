package mem

import "testing"

// TestRingVsHeapPopOrder randomly exercises the calendar-ring fill queue
// against the reference min-heap (UseHeapFills) through the public surface:
// identical schedule/cancel/tick sequences — due times inside the ring
// window, past it (heap spill), and at-or-behind the clock — must complete
// identical fill batches in identical order, and agree on NextReady and the
// pending count at every step. This is the queue-level pin behind
// TestCalendarFillBitIdentity.
func TestRingVsHeapPopOrder(t *testing.T) {
	ring := NewHierarchy(DefaultHierConfig())
	heap := NewHierarchy(DefaultHierConfig())
	heap.UseHeapFills()

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
		if r, h := ring.NextReady(), heap.NextReady(); r != h {
			t.Fatalf("step %d: NextReady %d (ring) vs %d (heap)", step, r, h)
		}
		if r, h := ring.PendingFills(), heap.PendingFills(); r != h {
			t.Fatalf("step %d: PendingFills %d (ring) vs %d (heap)", step, r, h)
		}
	}
	tick := func(step int, to uint64) {
		t.Helper()
		now = to
		rb, hb := ring.Tick(now), heap.Tick(now)
		if len(rb) != len(hb) {
			t.Fatalf("step %d cycle %d: batch sizes %d (ring) vs %d (heap)", step, now, len(rb), len(hb))
		}
		for i := range rb {
			if rb[i] != hb[i] {
				t.Fatalf("step %d cycle %d: batch entry %d differs: %+v (ring) vs %+v (heap)",
					step, now, i, rb[i], hb[i])
			}
		}
	}

	for step := 0; step < 8000; step++ {
		switch next(12) {
		case 0, 1, 2, 3, 4, 5: // schedule, biased toward the ring window
			var at uint64
			switch next(4) {
			case 0, 1:
				at = now + 1 + next(100) // inside the ring window
			case 2:
				at = now + 100 + next(80) // straddles the window edge
			case 3:
				at = now + next(2) // at or one past the clock
			}
			owner := next(64)
			line := next(1<<14) * 64
			idR := ring.ScheduleFill(at, line, SinkNone, owner)
			idH := heap.ScheduleFill(at, line, SinkNone, owner)
			if idR != idH {
				t.Fatalf("step %d: fill ids diverged: %d vs %d", step, idR, idH)
			}
			live = append(live, idR)
		case 6: // cancel a live fill (it stays queued but never applies)
			if len(live) > 0 {
				id := live[next(uint64(len(live)))]
				ring.CancelFill(id)
				heap.CancelFill(id)
			}
		case 7: // drop everything (the input-reset path; rewinds the ring clock)
			if next(8) == 0 {
				ring.DropPendingFills()
				heap.DropPendingFills()
				live = live[:0]
			}
		case 8, 9, 10: // advance a few cycles
			tick(step, now+1+next(10))
		case 11: // jump straight to the next completion
			if at := ring.NextReady(); at != NoFillPending {
				tick(step, at)
			}
		}
		check(step)
	}
	for ring.PendingFills() > 0 {
		at := ring.NextReady()
		if at == NoFillPending {
			t.Fatal("pending fills but no ready time")
		}
		tick(-1, at)
		check(-1)
	}
}
