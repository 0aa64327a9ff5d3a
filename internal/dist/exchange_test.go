package dist

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
)

// testCoordinator builds a coordinator (never started) for an instances x
// programs baseline campaign, with one worker joined as ID 1 who cannot be
// struck out.
func testCoordinator(tb testing.TB, instances, programs int) *Coordinator {
	tb.Helper()
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		tb.Fatal(err)
	}
	sc := experiments.Scale{Instances: instances, Programs: programs, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
	co, err := NewCoordinator(CoordinatorConfig{
		Campaign:   engine.Config{Campaign: experiments.CampaignConfig(spec, sc), Strategy: engine.StrategyRandom},
		LeaseTTL:   time.Minute,
		MaxStrikes: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(co.dc.Close)
	co.workers[1] = &workerState{name: "test", lastBeat: time.Now()}
	co.live = 1
	return co
}

// exchanger drives a coordinator through steady-state exchanges the way a
// worker does: each call delivers (empty) results for the units the last
// one granted and asks for a full grant.
type exchanger struct {
	co     *Coordinator
	req    ExchangeRequest
	empty  json.RawMessage
	digest uint64
}

func newExchanger(tb testing.TB, co *Coordinator) *exchanger {
	raw, digest, err := EncodeResult(checkpoint.ResultRec{})
	if err != nil {
		tb.Fatal(err)
	}
	return &exchanger{co: co, req: ExchangeRequest{WorkerID: 1, Want: co.cfg.LeaseUnits}, empty: raw, digest: digest}
}

func (x *exchanger) step(tb testing.TB) int {
	x.req.Seq++
	rep, _, err := x.co.exchange(&x.req)
	if err != nil {
		tb.Fatal(err)
	}
	x.req.Results = x.req.Results[:0]
	for _, u := range rep.Units {
		x.req.Results = append(x.req.Results, UnitResult{Inst: u.Inst, Prog: u.Prog, ResultDigest: x.digest, Result: x.empty})
	}
	return len(rep.Units)
}

// TestExchangeCostIndependentOfGrid: folding a grant's results and leasing
// the next grant allocates the same on an 80-unit and on an 8000-unit
// campaign: completion is a count and the next units come from a cursor,
// neither lists the grid.
func TestExchangeCostIndependentOfGrid(t *testing.T) {
	allocs := func(programs int) float64 {
		x := newExchanger(t, testCoordinator(t, 2, programs))
		x.step(t)
		return testing.AllocsPerRun(10, func() {
			if x.step(t) != x.co.cfg.LeaseUnits {
				t.Fatal("short grant in the middle of a campaign")
			}
		})
	}
	small, large := allocs(40), allocs(4000)
	if small != large {
		t.Errorf("an exchange allocates %.0f times on an 80-unit campaign, %.0f on an 8000-unit one", small, large)
	}
	t.Logf("%.0f allocations per exchange of %d results and %d units", small, DefaultLeaseUnits, DefaultLeaseUnits)
}

// BenchmarkExchange times the coordinator's side of one steady-state
// exchange at three grid sizes; ns/op must not follow the grid.
func BenchmarkExchange(b *testing.B) {
	for _, programs := range []int{40, 4000, 400000} {
		b.Run(fmt.Sprintf("units=%d", 2*programs), func(b *testing.B) {
			var x *exchanger
			for i := 0; i < b.N; i++ {
				if x == nil || x.step(b) == 0 { // campaign used up: start another
					b.StopTimer()
					x = newExchanger(b, testCoordinator(b, 2, programs))
					x.step(b)
					b.StartTimer()
				}
			}
		})
	}
}

// FuzzUnseal: a frame is bytes another process wrote. Whatever they are,
// every message type must come back decoded or as an error — no panic, no
// allocation sized by anything but the input — and a decoded exchange's
// results must survive their own decode the same way.
func FuzzUnseal(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame([]byte(`{"worker_id":1,"seq":2,"want":4,"retries":0}`)))
	f.Add(frame([]byte(`{"units":[{"inst":0,"prog":1}],"folded":4,"done":false}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{
			&JoinRequest{}, &JoinReply{}, &ExchangeReply{}, &HeartbeatRequest{}, &HeartbeatReply{},
			&LeaseRequest{}, &LeaseReply{}, &SubmitReply{},
		} {
			_ = Unseal(data, v)
		}
		var sub SubmitRequest
		if Unseal(data, &sub) == nil {
			_, _ = DecodeResult(&sub)
		}
		var req ExchangeRequest
		if Unseal(data, &req) == nil {
			for _, r := range req.Results {
				_, _ = decodeResult(r.Result, r.ResultDigest)
			}
		}
	})
}

// FuzzExchangeRequest puts arbitrary bytes where a unit's result belongs,
// in an exchange whose frame and result digests are right — what a buggy or
// hostile worker can get past every checksum — and runs it through the
// coordinator: it folds or refuses, and never panics.
func FuzzExchangeRequest(f *testing.F) {
	f.Add([]byte(`{"TestCases":30,"Programs":1}`))
	var co *Coordinator
	next := 0
	f.Fuzz(func(t *testing.T, result []byte) {
		const programs = 1 << 12
		if co == nil || next == programs { // every input gets a unit that is still open
			co, next = testCoordinator(t, 1, programs), 0
		}
		body := fmt.Appendf(nil, `{"worker_id":1,"results":[{"inst":0,"prog":%d,"draws":1,"result_digest":%d,"result":%s}]}`,
			next, Digest(result), result)
		var req ExchangeRequest
		if err := Unseal(frame(body), &req); err != nil {
			return // not JSON: refused before any result is looked at
		}
		rep, status, err := co.exchange(&req)
		if (err == nil) != (status == 200) || (err == nil) != (rep != nil) {
			t.Fatalf("exchange: reply %+v, status %d, err %v", rep, status, err)
		}
		if err == nil {
			next++
		}
	})
}
