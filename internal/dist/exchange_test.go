package dist

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/experiments"
)

// testCampaign is the baseline campaign of instances x programs units the
// dist tests run.
func testCampaign(tb testing.TB, instances, programs int) engine.Config {
	tb.Helper()
	spec, err := experiments.DefenseByName("baseline")
	if err != nil {
		tb.Fatal(err)
	}
	sc := experiments.Scale{Instances: instances, Programs: programs, BaseInputs: 6, Mutants: 4, BootInsts: 2000, Seed: 1}
	return engine.Config{Campaign: experiments.CampaignConfig(spec, sc), Strategy: engine.StrategyRandom}
}

// testCoordinator builds a coordinator (never started, so nothing lapses)
// with a 1 s lease TTL for an instances x programs baseline campaign, with
// one worker joined as ID 1 who cannot be struck out.
func testCoordinator(tb testing.TB, instances, programs int) *Coordinator {
	return newTestCoordinator(tb, testCampaign(tb, instances, programs))
}

func newTestCoordinator(tb testing.TB, cfg engine.Config) *Coordinator {
	tb.Helper()
	co, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, LeaseTTL: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	co.maxStrikes = 1 << 30
	tb.Cleanup(co.dc.Close)
	joinTestWorker(co, 1)
	return co
}

// joinTestWorker adds a live worker with ID id to a coordinator that is
// not serving.
func joinTestWorker(co *Coordinator, id int64) {
	co.workers[id] = &workerState{name: "test", lastBeat: time.Now(), leases: map[engine.UnitID]time.Time{}}
	co.live++
}

// On testCoordinator's 1 s TTL, results that took a millisecond each earn
// grants of TTL/20 ÷ 1 ms units.
const (
	fastUnit  = time.Millisecond
	fastGrant = 50
)

// exchanger drives a coordinator through steady-state exchanges the way a
// worker does: each call delivers results, each of which took unitTime,
// for the units the last one granted, and asks for a full grant.
type exchanger struct {
	co     *Coordinator
	req    ExchangeRequest
	result []byte
	digest uint64
}

func newExchanger(tb testing.TB, co *Coordinator) *exchanger {
	x := &exchanger{co: co, req: ExchangeRequest{WorkerID: 1, Want: GrantAll}}
	x.setUnitTime(tb, fastUnit)
	return x
}

// setUnitTime makes the results delivered from now on, the pending ones
// too, report unitTime.
func (x *exchanger) setUnitTime(tb testing.TB, unitTime time.Duration) {
	var err error
	if x.result, x.digest, err = EncodeResult(checkpoint.ResultRec{Elapsed: unitTime}); err != nil {
		tb.Fatal(err)
	}
	for i := range x.req.Results {
		x.req.Results[i].Result, x.req.Results[i].ResultDigest = x.result, x.digest
	}
}

// step runs one exchange and returns the size of its grant.
func (x *exchanger) step(tb testing.TB) int {
	x.req.Seq++
	rep, _, err := x.co.exchange(&x.req)
	if err != nil {
		tb.Fatal(err)
	}
	x.req.Results = x.req.Results[:0]
	for _, u := range rep.Units {
		x.req.Results = append(x.req.Results, UnitResult{Inst: u.Inst, Prog: u.Prog, ResultDigest: x.digest, Result: x.result})
	}
	return len(rep.Units)
}

// warm runs the two exchanges that take a worker from unmeasured to full
// grants: the first grants one unit, the second delivers it.
func (x *exchanger) warm(tb testing.TB) {
	if n := x.step(tb); n != 1 {
		tb.Fatalf("first grant %d units, want 1 before any result", n)
	}
	if n := x.step(tb); n != fastGrant {
		tb.Fatalf("grant after a %v result: %d units, want %d", fastUnit, n, fastGrant)
	}
}

// TestGrantSizedInTime drives one worker's exchanges by hand, on a 1 s
// TTL: before it has delivered a result it is granted one unit; results
// of 1 ms earn grants of TTL/20 ÷ 1 ms units, results of 400 ms grants of
// one; it never holds more than two grants; and the campaign's last grants
// taper down to single units, full ones before them.
func TestGrantSizedInTime(t *testing.T) {
	x := newExchanger(t, testCoordinator(t, 2, 1000))
	x.warm(t)

	// Asking without delivering: the second grant is prefetched, a third is
	// refused.
	pending := x.req.Results
	for _, want := range []int{fastGrant, 0} {
		x.req.Seq++
		rep, _, err := x.co.exchange(&ExchangeRequest{WorkerID: 1, Seq: x.req.Seq, Want: GrantAll})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Units) != want {
			t.Fatalf("ask while holding %d leases: %d units, want %d", x.co.LeasesHeld()[1], len(rep.Units), want)
		}
		for _, u := range rep.Units {
			pending = append(pending, UnitResult{Inst: u.Inst, Prog: u.Prog, ResultDigest: x.digest, Result: x.result})
		}
	}
	if held := x.co.LeasesHeld()[1]; held != 2*fastGrant {
		t.Fatalf("%d leases held, want two grants of %d", held, fastGrant)
	}

	x.req.Results = pending
	x.setUnitTime(t, 400*time.Millisecond)
	for i := 0; i < 3; i++ {
		if n := x.step(t); n != 1 {
			t.Fatalf("grant after 400 ms results: %d units, want 1", n)
		}
	}

	x.setUnitTime(t, fastUnit)
	var sizes []int
	for n := x.step(t); n > 0; n = x.step(t) {
		if held := x.co.LeasesHeld()[1]; held > 2*fastGrant {
			t.Fatalf("%d leases held, more than two grants of %d", held, fastGrant)
		}
		sizes = append(sizes, n)
	}
	for i, n := range sizes {
		if n > fastGrant || (i > 0 && n > sizes[i-1]) {
			t.Fatalf("grant sizes %v: grant %d is above a full grant or grows again", sizes, i)
		}
	}
	if !x.co.dc.Complete() || sizes[0] != fastGrant || sizes[len(sizes)-1] != 1 {
		t.Errorf("grant sizes %v, campaign complete %v: want full grants first, single units last, and every unit run",
			sizes, x.co.dc.Complete())
	}
}

// TestExchangeRenewsOnlySender: an exchange moves the deadlines of every
// lease its sender holds, and of no other worker's — the empty one a
// worker's heartbeat sends, which is answered with no units, and one that
// carries a result and asks for more alike.
func TestExchangeRenewsOnlySender(t *testing.T) {
	co := testCoordinator(t, 2, 1000)
	joinTestWorker(co, 2)
	co.fixedGrant = 4
	var held []Unit
	for id := int64(1); id <= 2; id++ {
		rep, _, err := co.exchange(&ExchangeRequest{WorkerID: id, Seq: 1, Want: GrantAll})
		if err != nil || len(rep.Units) != 4 {
			t.Fatalf("worker %d: grant %+v, %v", id, rep, err)
		}
		if id == 1 {
			held = rep.Units
		}
	}
	raw, digest, err := EncodeResult(checkpoint.ResultRec{Elapsed: fastUnit})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  ExchangeRequest
	}{
		{"heartbeat", ExchangeRequest{WorkerID: 1}},
		{"exchange of a result", ExchangeRequest{WorkerID: 1, Seq: 2, Want: GrantAll, Results: []UnitResult{
			{Inst: held[0].Inst, Prog: held[0].Prog, ResultDigest: digest, Result: raw},
		}}},
	} {
		stale := time.Now().Add(-time.Hour)
		for _, ws := range co.workers {
			for u := range ws.leases {
				ws.leases[u] = stale
			}
		}
		rep, _, err := co.exchange(&tc.req)
		if err != nil || rep.Done || (len(tc.req.Results) == 0 && len(rep.Units) != 0) {
			t.Fatalf("%s: %+v, %v", tc.name, rep, err)
		}
		now := time.Now()
		for id, ws := range co.workers {
			for u, deadline := range ws.leases {
				if renewed := deadline.After(now); renewed != (id == 1) {
					t.Errorf("%s from worker 1: worker %d's lease on %v runs to %v", tc.name, id, u, deadline)
				}
			}
		}
	}
}

// TestLapsedUnitRunsAlone: a unit whose lease lapsed is granted again
// alone, only to a worker that holds nothing, and that worker is granted
// nothing more until it has delivered it. So a poisonous unit that kills
// its next worker too takes no other unit's lease with it, and only the
// unit itself climbs towards the reassignment cap.
func TestLapsedUnitRunsAlone(t *testing.T) {
	co := testCoordinator(t, 2, 1000)
	joinTestWorker(co, 2)
	joinTestWorker(co, 3)
	co.fixedGrant = 4
	raw, digest, err := EncodeResult(checkpoint.ResultRec{Elapsed: fastUnit})
	if err != nil {
		t.Fatal(err)
	}
	lapsed := map[engine.UnitID]bool{}
	exchange := func(id int64, seq uint64, results ...Unit) []Unit {
		t.Helper()
		req := &ExchangeRequest{WorkerID: id, Seq: seq, Want: GrantAll}
		for _, u := range results {
			req.Results = append(req.Results, UnitResult{Inst: u.Inst, Prog: u.Prog, ResultDigest: digest, Result: raw})
		}
		rep, _, err := co.exchange(req)
		if err != nil {
			t.Fatalf("worker %d, exchange %d: %v", id, seq, err)
		}
		return rep.Units
	}
	evict := func(id int64) {
		co.mu.Lock()
		defer co.mu.Unlock()
		co.evictLocked(id, "test")
	}

	exchange(1, 1)
	for seq := uint64(1); seq <= 2; seq++ {
		for _, u := range exchange(2, seq) {
			lapsed[engine.UnitID{Inst: u.Inst, Prog: u.Prog}] = true
		}
	}
	evict(2) // two grants lapse: eight units
	if len(co.requeue) != 8 {
		t.Fatalf("%d units requeued, want the dead worker's 8", len(co.requeue))
	}

	// A worker that holds a grant gets cursor units, never a lapsed one.
	for _, u := range exchange(1, 2) {
		if lapsed[engine.UnitID{Inst: u.Inst, Prog: u.Prog}] {
			t.Errorf("lapsed unit %v granted beside another grant", u)
		}
	}
	// A worker that holds nothing gets one lapsed unit, alone, and nothing
	// more until it delivers it; then the next one, alone.
	lone := func(grant []Unit) Unit {
		t.Helper()
		if len(grant) != 1 || !lapsed[engine.UnitID{Inst: grant[0].Inst, Prog: grant[0].Prog}] {
			t.Fatalf("leaseless worker granted %v, want one lapsed unit", grant)
		}
		return grant[0]
	}
	first := lone(exchange(3, 1))
	if grant := exchange(3, 2); len(grant) != 0 {
		t.Fatalf("worker holding a lapsed unit granted %v", grant)
	}
	held := lone(exchange(3, 3, first))
	if grant := exchange(3, 4); len(grant) != 0 {
		t.Fatalf("worker holding a lapsed unit granted %v", grant)
	}
	// Its worker dies too: that unit alone lapses again.
	evict(3)
	u := engine.UnitID{Inst: held.Inst, Prog: held.Prog}
	if len(co.requeue) != 7 || co.tries[u] != 2 {
		t.Errorf("after the lone unit's worker died: %d requeued, its tries %d; want 7 and 2", len(co.requeue), co.tries[u])
	}
}

// firstViolation returns the first unit of instance 0 that reports a
// violation, and its result.
func firstViolation(t *testing.T, runner *engine.UnitRunner, programs int) (engine.UnitID, checkpoint.ResultRec, uint64) {
	t.Helper()
	for id := (engine.UnitID{}); id.Prog < programs; id.Prog++ {
		rec, draws, err := runner.Run(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Violations) > 0 {
			return id, rec, draws
		}
	}
	t.Fatal("no violating unit in instance 0")
	return engine.UnitID{}, checkpoint.ResultRec{}, 0
}

// TestStopOnFirstRetiresClosedLeases: in a stop-on-first campaign, a
// violation at (0, p) that folds closes every unit (0, q > p), and the
// leases on them end with the fold — they are dead work and must not count
// as leased in the end-of-campaign taper — while the leases before the cut
// stay.
func TestStopOnFirstRetiresClosedLeases(t *testing.T) {
	const programs = 40
	cfg := testCampaign(t, 2, programs)
	cfg.Campaign.Base.StopOnFirstViolation = true
	runner, err := engine.NewUnitRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, rec, draws := firstViolation(t, runner, programs)
	raw, digest, err := EncodeResult(rec)
	if err != nil {
		t.Fatal(err)
	}

	co := newTestCoordinator(t, cfg)
	co.fixedGrant = programs
	// Worker 1 leases the whole of instance 0; worker 2 joins and brings
	// (0, p).
	if rep, _, err := co.exchange(&ExchangeRequest{WorkerID: 1, Seq: 1, Want: programs}); err != nil || len(rep.Units) != programs || rep.Units[programs-1].Inst != 0 {
		t.Fatalf("grant: %+v, %v; want the %d units of instance 0", rep, err, programs)
	}
	joinTestWorker(co, 2)
	if _, _, err := co.exchange(&ExchangeRequest{WorkerID: 2, Results: []UnitResult{
		{Inst: v.Inst, Prog: v.Prog, Draws: draws, ResultDigest: digest, Result: raw},
	}}); err != nil {
		t.Fatal(err)
	}
	if held := co.LeasesHeld()[1]; held != v.Prog {
		t.Errorf("after the violation at %v folded worker 1 holds %d leases, want the %d before it", v, held, v.Prog)
	}
	for u := range co.leases {
		if !co.dc.Open(u) {
			t.Errorf("a lease on %v, which the cut closed", u)
		}
	}
	if unleased := co.dc.Remaining() - len(co.leases); unleased != programs {
		t.Errorf("%d units unleased, want instance 1's %d", unleased, programs)
	}
}

// TestWorkerSkipsUnitsPastItsCut: a stop-on-first worker that finds a
// violation at (0, p) runs no unit (0, q > p) after it — in the same batch
// or a later one — and still runs the units before the cut and other
// instances'. Without stop-on-first it runs every unit.
func TestWorkerSkipsUnitsPastItsCut(t *testing.T) {
	const programs = 40
	for _, stopOnFirst := range []bool{true, false} {
		cfg := testCampaign(t, 2, programs)
		cfg.Campaign.Base.StopOnFirstViolation = stopOnFirst
		w, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1", Name: "skip", Campaign: cfg})
		if err != nil {
			t.Fatal(err)
		}
		v, _, _ := firstViolation(t, w.runner, programs)
		if v.Prog == 0 {
			t.Fatal("instance 0 violates at its first unit; the test needs a unit before the cut")
		}
		var ran, want []Unit
		for _, batch := range [][]Unit{
			{{0, v.Prog}, {0, v.Prog + 1}, {1, 0}, {0, v.Prog + 2}},
			{{0, v.Prog + 3}, {0, v.Prog - 1}},
		} {
			results, err := w.runBatch(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				ran = append(ran, Unit{r.Inst, r.Prog})
			}
			for _, u := range batch {
				if !stopOnFirst || u.Inst != 0 || u.Prog <= v.Prog {
					want = append(want, u)
				}
			}
		}
		if fmt.Sprint(ran) != fmt.Sprint(want) {
			t.Errorf("stop-on-first %v, violation at %v: ran %v, want %v", stopOnFirst, v, ran, want)
		}
	}
}

// TestExchangeCostIndependentOfGrid: folding a grant's results and leasing
// the next grant allocates the same on a 2 000-unit and on a 200 000-unit
// campaign: completion is a count and the next units come from a cursor,
// neither lists the grid.
func TestExchangeCostIndependentOfGrid(t *testing.T) {
	allocs := func(programs int) float64 {
		x := newExchanger(t, testCoordinator(t, 2, programs))
		x.warm(t)
		return testing.AllocsPerRun(10, func() {
			if x.step(t) != fastGrant {
				t.Fatal("short grant in the middle of a campaign")
			}
		})
	}
	small, large := allocs(1000), allocs(100000)
	if small != large {
		t.Errorf("an exchange allocates %.0f times on a 2 000-unit campaign, %.0f on a 200 000-unit one", small, large)
	}
	t.Logf("%.0f allocations per exchange of %d results and %d units", small, fastGrant, fastGrant)
}

// BenchmarkExchange times the coordinator's side of one steady-state
// exchange of full grants at three grid sizes; ns/op must not follow the
// grid.
func BenchmarkExchange(b *testing.B) {
	for _, programs := range []int{1000, 10000, 400000} {
		b.Run(fmt.Sprintf("units=%d", 2*programs), func(b *testing.B) {
			var x *exchanger
			for i := 0; i < b.N; i++ {
				if x == nil || x.step(b) == 0 { // campaign used up: start another
					b.StopTimer()
					x = newExchanger(b, testCoordinator(b, 2, programs))
					x.warm(b)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fastGrant), "ns/unit")
		})
	}
}

// TestExchangeAllocs pins what the coordinator allocates to fold a full
// grant of non-violating results and grant the next one: the decode of an
// encoded result allocates nothing, so what is left is each folded result
// itself, one allocation, and a few for the grant's bookkeeping (12 for an
// exchange of 4 results and 4 units when grants grew by append; 39 with
// JSON results).
func TestExchangeAllocs(t *testing.T) {
	const budget = fastGrant + 4
	x := newExchanger(t, testCoordinator(t, 2, 4000))
	x.warm(t)
	allocs := testing.AllocsPerRun(20, func() { x.step(t) })
	if allocs > budget {
		t.Errorf("an exchange of %d results allocates %.0f times, budget %d", fastGrant, allocs, budget)
	}
	t.Logf("%.0f allocations per exchange of %d results and %d units", allocs, fastGrant, fastGrant)
}

// sealedExchange is a valid exchange frame carrying one result.
func sealedExchange(tb testing.TB, result []byte) []byte {
	data, err := Seal(&ExchangeRequest{WorkerID: 1, Seq: 2, Want: 4, Results: []UnitResult{
		{Inst: 0, Prog: 3, Draws: 102, ResultDigest: Digest(result), Result: result},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzUnseal: a frame is bytes another process wrote. Whatever they are,
// every message type must come back decoded or as an error — no panic, no
// allocation sized by anything but the input — and a decoded exchange's
// results must survive their own decode the same way. A binary body that
// decodes seals back to the same frame: its encoding is canonical.
func FuzzUnseal(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame([]byte(`{"units":[{"inst":0,"prog":1}],"folded":4,"done":false}`)))
	raw, _, err := EncodeResult(checkpoint.ResultRec{TestCases: 30, Programs: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealedExchange(f, raw))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{
			&JoinRequest{}, &JoinReply{}, &ExchangeReply{}, &LeaseRequest{}, &LeaseReply{}, &SubmitReply{},
		} {
			_ = Unseal(data, v)
		}
		for _, m := range []binaryMessage{&SubmitRequest{}, &ExchangeRequest{}} {
			if Unseal(data, m) != nil {
				continue
			}
			var results [][]byte
			switch m := m.(type) {
			case *SubmitRequest:
				results = append(results, m.Result)
			case *ExchangeRequest:
				for _, r := range m.Results {
					results = append(results, r.Result)
				}
			}
			for _, r := range results {
				_ = new(checkpoint.ResultRec).UnmarshalBinary(r)
			}
			if again, err := Seal(m); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("a decoded %T seals to other bytes: %v", m, err)
			}
		}
	})
}

// FuzzExchangeRequest puts arbitrary bytes where a unit's result belongs,
// copies%3 times, in an exchange whose frame and result digests are right —
// what a buggy or hostile worker can get past every checksum — and runs it
// through the coordinator: it folds or refuses, and never panics. With no
// result it is a heartbeat, which the live worker gets answered with no
// units.
func FuzzExchangeRequest(f *testing.F) {
	raw, _, err := EncodeResult(checkpoint.ResultRec{TestCases: 30, Programs: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint8(1))
	f.Add([]byte(nil), uint8(0))
	var co *Coordinator
	next := 0
	f.Fuzz(func(t *testing.T, result []byte, copies uint8) {
		const programs = 1 << 12
		n := int(copies % 3)
		if co == nil || next+n > programs { // every result gets a unit that is still open
			co, next = testCoordinator(t, 1, programs), 0
		}
		sent := &ExchangeRequest{WorkerID: 1}
		for i := 0; i < n; i++ {
			sent.Results = append(sent.Results, UnitResult{Inst: 0, Prog: next + i, Draws: 1, ResultDigest: Digest(result), Result: result})
		}
		next += n
		data, err := Seal(sent)
		if err != nil {
			t.Fatal(err)
		}
		var req ExchangeRequest
		if err := Unseal(data, &req); err != nil {
			t.Fatalf("a sealed exchange does not unseal: %v", err)
		}
		rep, status, err := co.exchange(&req)
		if (err == nil) != (status == 200) || (err == nil) != (rep != nil) {
			t.Fatalf("exchange: reply %+v, status %d, err %v", rep, status, err)
		}
		if n == 0 && (err != nil || len(rep.Units) != 0) {
			t.Fatalf("heartbeat: reply %+v, err %v; want no units", rep, err)
		}
	})
}
