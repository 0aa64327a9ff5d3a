package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// DefaultLeaseTTL is the lease TTL of a CoordinatorConfig that sets none.
const DefaultLeaseTTL = 10 * time.Second

// Coordinator settings that have one value outside the tests.
const (
	// maxReassign caps how often a unit's lease may lapse. Workers run
	// units unguarded, so a unit that panics kills whoever runs it: one that
	// has lost more workers than this is presumed poisonous and quarantined
	// unrun (DistCampaign.Quarantine), as a guarded panic is in a
	// single-process run. A unit that has lost a worker runs alone after
	// that (freshUnitsLocked), so a poisonous unit takes no other unit to
	// the cap.
	maxReassign = 3
	// defaultMaxStrikes is how many integrity failures (bad result digests,
	// out-of-bounds submissions) a worker survives before being banned.
	defaultMaxStrikes = 2
	// defaultCheckpointEvery is the fsync cadence of the checkpoint log:
	// every fold appends its unit's record as it happens, and after that
	// many folds — as on completion and interruption — the file is fsynced.
	defaultCheckpointEvery = 16
)

// ErrInterrupted reports a coordinator run stopped by its context with the
// campaign incomplete; the checkpoint (if configured) resumes it.
var ErrInterrupted = errors.New("dist: campaign interrupted")

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Campaign is the campaign to run — the same engine.Config a
	// single-process run takes. CheckpointDir/Resume give the coordinator
	// crash-safety; Inject drives checkpoint-write faults.
	Campaign engine.Config

	// LeaseTTL is how long a leased unit stays assigned without word from
	// its holder before it is reassigned (default 10s). Every exchange
	// renews the holder's leases, and workers send an empty one at TTL/3.
	// The coordinator runs no unit itself: with no live worker it waits for
	// one to join.
	LeaseTTL time.Duration
	// Log receives coordinator events; nil discards them.
	Log *log.Logger
}

// grantShare sizes grants in time: a fresh grant covers about
// LeaseTTL/grantShare of its worker's measured unit time. A round trip per
// ~50 ms of work on a 1 s TTL is noise beside the simulation, and a worker
// that dies strands at most two grants, a tenth of a TTL's work.
const grantShare = 20

// workerState tracks one joined worker.
type workerState struct {
	name     string
	lastBeat time.Time
	evicted  bool
	strikes  int
	retries  int // highest cumulative client-retry count it reported
	// The units it holds leases on, each with its deadline: its exchanges
	// renew these and no other worker's.
	leases map[engine.UnitID]time.Time
	// unitTime is the mean Elapsed of the results its last exchange
	// carried; 0 until it has delivered one.
	unitTime time.Duration

	// The last numbered exchange and what it was granted: a retransmission
	// (same seq) is answered from here.
	lastSeq   uint64
	lastGrant []engine.UnitID
}

// Coordinator owns a distributed campaign: it serves the worker protocol,
// tracks leases and worker health, folds results exactly once, reassigns
// the work of failed workers and quarantines the units that keep killing
// them. It runs no unit itself: a campaign whose fleet is gone stays open
// until a worker joins, or until its context ends it, resumable.
type Coordinator struct {
	cfg CoordinatorConfig
	dc  *engine.DistCampaign
	srv *http.Server
	ln  net.Listener

	mu         sync.Mutex
	workers    map[int64]*workerState
	live       int                     // workers not evicted
	leases     map[engine.UnitID]int64 // leased unit → holder; deadlines are the holder's
	requeue    []engine.UnitID         // lapsed leases, each granted again alone
	lost       []engine.UnitID         // units past maxReassign, for Run to quarantine
	tries      map[engine.UnitID]int   // reassignment count per unit
	nextWorker int64
	folds      int // folded results since the last checkpoint fsync
	cuts       int // the campaign's stop-on-first cut moves its leases have seen
	// Set at construction, changed only by tests (export_test.go):
	fixedGrant      int // > 0: the size of every fresh grant
	maxStrikes      int // integrity failures that ban a worker
	checkpointEvery int // folds between checkpoint fsyncs

	evictions, reassigned, dups int
}

// NewCoordinator builds a coordinator for cfg's campaign. With
// cfg.Campaign.Resume set, progress is restored from the checkpoint
// directory — the crash-restart path.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	dc, err := engine.NewDistCampaign(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:             cfg,
		dc:              dc,
		maxStrikes:      defaultMaxStrikes,
		checkpointEvery: defaultCheckpointEvery,
		workers:         map[int64]*workerState{},
		leases:          map[engine.UnitID]int64{},
		tries:           map[engine.UnitID]int{},
		// Worker IDs start where no earlier incarnation's did: a worker that
		// outlived a restarted coordinator must be told 410, not taken for a
		// new worker that was dealt its old ID — sequence numbers and held
		// leases are per identity.
		nextWorker: time.Now().UnixNano(),
	}, nil
}

// Start begins serving the worker protocol on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Serving starts before Run; workers may
// join immediately.
func (co *Coordinator) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathJoin, co.handleJoin)
	mux.HandleFunc(PathExchange, co.handleExchange)
	mux.HandleFunc(PathLease, co.handleLease)
	mux.HandleFunc(PathSubmit, co.handleSubmit)
	co.ln = ln
	// A peer slower than a lease is as good as gone — its leases lapse
	// before its request has arrived — so it does not get to hold a
	// connection either. Workers exchange at least every TTL/3.
	ttl := co.cfg.LeaseTTL
	co.srv = &http.Server{Handler: mux, ReadHeaderTimeout: ttl, ReadTimeout: 2 * ttl, IdleTimeout: 4 * ttl}
	go co.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr(), nil
}

// Addr returns the serving address (after Start).
func (co *Coordinator) Addr() net.Addr { return co.ln.Addr() }

// Run drives the campaign to completion: sweeping lapsed leases, evicting
// silent workers, and quarantining the units that lost too many of them.
// It returns the campaign result — bit-identical to a single-process run at
// the same seed — or, on context cancellation, the partial result alongside
// ErrInterrupted with the checkpoint saved for resumption. With no live
// worker it waits: the context bounds the wait, and `amulet -resume` on the
// checkpoint finishes a campaign no fleet will.
func (co *Coordinator) Run(ctx context.Context) (*fuzzer.CampaignResult, error) {
	defer co.dc.Close()
	defer func() {
		if co.srv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			co.srv.Shutdown(sctx) //nolint:errcheck
		}
	}()

	tick := co.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		select {
		case <-ctx.Done():
			if err := co.dc.SaveCheckpoint(); err != nil {
				co.cfg.Log.Printf("dist: checkpoint on interrupt: %v", err)
			}
			return co.result(), errors.Join(ErrInterrupted, ctx.Err())
		case <-co.dc.Finished(): // the last fold, not the next tick
		case <-ticker.C:
		}

		co.sweep()
		// Outside co.mu: a quarantine writes a bundle and appends to the log.
		for _, u := range co.takeLost() {
			co.dc.Quarantine(u, fmt.Sprintf("lost %d workers", maxReassign+1))
		}
		if co.dc.Complete() {
			if err := co.dc.SaveCheckpoint(); err != nil {
				return co.result(), err
			}
			// Linger half a TTL before the deferred shutdown: idle workers
			// poll within that window, observe Done, and exit cleanly
			// instead of erroring against a vanished coordinator. Without a
			// live worker there is nobody to wait for.
			if co.liveWorkers() > 0 {
				linger := time.NewTimer(co.cfg.LeaseTTL / 2)
				select {
				case <-ctx.Done():
				case <-linger.C:
				}
				linger.Stop()
			}
			return co.result(), nil
		}
	}
}

// result folds the campaign outcome and stamps the robustness counters
// into the aggregate metrics (instance 0 carries them — Totals() sums
// instances, so the summary sees campaign-wide counts).
func (co *Coordinator) result() *fuzzer.CampaignResult {
	res := co.dc.Result()
	rob := co.Robustness()
	if len(res.Instances) > 0 && res.Instances[0] != nil {
		m := &res.Instances[0].Metrics
		m.Retries += rob.Retries
		m.Evictions += rob.Evictions
		m.Reassigned += rob.Reassigned
		m.DuplicatesDropped += rob.DuplicatesDropped
	}
	return res
}

// Robustness returns the coordinator's robustness counters as an
// executor.Metrics (only the distributed-campaign fields are set).
func (co *Coordinator) Robustness() executor.Metrics {
	co.mu.Lock()
	defer co.mu.Unlock()
	retries := 0
	for _, w := range co.workers {
		retries += w.retries
	}
	return executor.Metrics{
		Retries:           retries,
		Evictions:         co.evictions,
		Reassigned:        co.reassigned,
		DuplicatesDropped: co.dups,
	}
}

// sweep expires lapsed leases and evicts workers that fell silent.
func (co *Coordinator) sweep() {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for id, w := range co.workers {
		if !w.evicted && now.Sub(w.lastBeat) > co.cfg.LeaseTTL {
			co.evictLocked(id, "silent for a lease TTL")
		}
	}
	for _, w := range co.workers {
		for u, deadline := range w.leases {
			if now.After(deadline) {
				co.expireLeaseLocked(u, "lease expired")
			}
		}
	}
	co.retireClosedLocked()
}

// evictLocked marks a worker dead and expires its leases. Its in-flight
// results are still accepted if they arrive first — eviction revokes
// scheduling, not truth.
func (co *Coordinator) evictLocked(id int64, why string) {
	w := co.workers[id]
	if w == nil || w.evicted {
		return
	}
	w.evicted = true
	co.live--
	co.evictions++
	co.cfg.Log.Printf("dist: evicting worker %d (%s): %s", id, w.name, why)
	for u := range w.leases {
		co.expireLeaseLocked(u, "holder evicted")
	}
}

// retireLocked ends unit u's lease, if it has one.
func (co *Coordinator) retireLocked(u engine.UnitID) {
	if id, ok := co.leases[u]; ok {
		delete(co.leases, u)
		delete(co.workers[id].leases, u)
	}
}

// retireClosedLocked ends the leases on units that a stop-on-first cut
// closed since it last looked: they are dead work, and counting them as
// leased would shrink the end-of-campaign taper. Cuts move a few times per
// instance, so the scan of the lease table is rare.
func (co *Coordinator) retireClosedLocked() {
	cuts := co.dc.Cuts()
	if cuts == co.cuts {
		return
	}
	co.cuts = cuts
	for u := range co.leases {
		if !co.dc.Open(u) {
			co.retireLocked(u)
		}
	}
}

// expireLeaseLocked queues a unit to be granted again, counting the
// reassignment; past maxReassign Run quarantines it instead.
func (co *Coordinator) expireLeaseLocked(u engine.UnitID, why string) {
	co.retireLocked(u)
	if co.dc.Done(u) {
		return
	}
	co.reassigned++
	co.tries[u]++
	if co.tries[u] <= maxReassign {
		co.requeue = append(co.requeue, u)
	} else {
		co.lost = append(co.lost, u)
		co.cfg.Log.Printf("dist: unit (%d,%d) lost %d workers (%s); quarantining it unrun", u.Inst, u.Prog, co.tries[u], why)
	}
}

// takeLost returns the units past maxReassign, for Run to quarantine.
func (co *Coordinator) takeLost() []engine.UnitID {
	co.mu.Lock()
	defer co.mu.Unlock()
	lost := co.lost
	co.lost = nil
	return lost
}

// liveWorkers is the number of joined workers not evicted.
func (co *Coordinator) liveWorkers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.live
}

// --- handlers ---

// reply seals v as the 200 response.
func reply(w http.ResponseWriter, v any) {
	data, err := Seal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck
}

// readReq unseals the request body into v. A body past maxBody is a 413 —
// refused on its declared length where it declares one, and never buffered
// past the limit; a digest failure or garbage body is a 400 the client
// treats as permanent for this attempt's payload (its retry re-sends a
// fresh copy).
func readReq(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > maxBody {
		http.Error(w, "dist: request body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	data, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	if err == nil {
		err = Unseal(data, v)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return false
	}
	return true
}

func (co *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !readReq(w, r, &req) {
		return
	}
	inst, progs := co.dc.Shape()
	switch {
	case req.ConfigFP != co.dc.ConfigFP():
		http.Error(w, fmt.Sprintf("dist: config fingerprint mismatch: worker %#016x, coordinator %#016x",
			req.ConfigFP, co.dc.ConfigFP()), http.StatusConflict)
		return
	case req.Frontend != co.dc.FrontendName():
		http.Error(w, fmt.Sprintf("dist: frontend mismatch: worker %q, coordinator %q",
			req.Frontend, co.dc.FrontendName()), http.StatusConflict)
		return
	case req.Instances != inst || req.Programs != progs:
		http.Error(w, fmt.Sprintf("dist: campaign shape mismatch: worker %dx%d, coordinator %dx%d",
			req.Instances, req.Programs, inst, progs), http.StatusConflict)
		return
	}
	co.mu.Lock()
	co.nextWorker++
	id := co.nextWorker
	co.workers[id] = &workerState{name: req.Worker, lastBeat: time.Now(), leases: map[engine.UnitID]time.Time{}}
	co.live++
	co.mu.Unlock()
	co.cfg.Log.Printf("dist: worker %d (%s) joined", id, req.Worker)
	reply(w, &JoinReply{WorkerID: id, LeaseTTLMS: co.cfg.LeaseTTL.Milliseconds()})
}

func (co *Coordinator) handleExchange(w http.ResponseWriter, r *http.Request) {
	var req ExchangeRequest
	if !readReq(w, r, &req) {
		return
	}
	if rep, ok := co.serveExchange(w, &req); ok {
		reply(w, rep)
	}
}

// handleLease and handleSubmit adapt exchange's single-step forms. They
// carry no sequence number, so a lease whose reply is lost strands its
// grant until the lease lapses and is granted again: safe, merely slow.

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readReq(w, r, &req) {
		return
	}
	if req.Max <= 0 {
		req.Max = GrantAll
	}
	if rep, ok := co.serveExchange(w, &ExchangeRequest{WorkerID: req.WorkerID, Want: req.Max}); ok {
		reply(w, &LeaseReply{Units: rep.Units, Done: rep.Done})
	}
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readReq(w, r, &req) {
		return
	}
	res := UnitResult{Inst: req.Inst, Prog: req.Prog, Draws: req.Draws, ResultDigest: req.ResultDigest, Result: req.Result}
	if rep, ok := co.serveExchange(w, &ExchangeRequest{WorkerID: req.WorkerID, Results: []UnitResult{res}, Retries: req.Retries}); ok {
		reply(w, &SubmitReply{Folded: rep.Folded == 1, Done: rep.Done})
	}
}

// serveExchange runs exchange and writes its refusal, if it is one.
func (co *Coordinator) serveExchange(w http.ResponseWriter, req *ExchangeRequest) (*ExchangeReply, bool) {
	rep, status, err := co.exchange(req)
	if err != nil {
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return rep, true
}

// errGone refuses a worker the coordinator does not know (it restarted) or
// has evicted.
var errGone = errors.New("dist: unknown or evicted worker")

// exchange is the one server path of the worker protocol: it folds the
// request's results in order, retires their leases, keeps the checkpoint's
// fsync cadence, renews every lease a live sender holds — its own, at a
// cost of its own lease count — and grants units. An empty exchange is the
// worker's heartbeat.
//
// A result that fails its digest, does not decode, or names a unit outside
// the campaign is a worker-side integrity failure, not line noise (the
// frame already survived its digest check): the sender is struck — banned
// at maxStrikes — the results before it stay folded, the ones after it are
// not looked at, and the call is refused with 409. Eviction revokes
// scheduling, not results: what an evicted or unknown worker brought is
// folded first, then it is refused with 410 and gets no units.
func (co *Coordinator) exchange(req *ExchangeRequest) (*ExchangeReply, int, error) {
	var bad error
	taken, folded := 0, 0
	var elapsed time.Duration
	for i := range req.Results {
		r := &req.Results[i]
		first, err := false, ErrBadDigest
		if Digest(r.Result) == r.ResultDigest {
			first, err = co.dc.RecordEncoded(engine.UnitID{Inst: r.Inst, Prog: r.Prog}, r.Draws, r.Result)
		}
		if err != nil {
			bad = err
			break
		}
		taken++
		elapsed += checkpoint.ResultElapsed(r.Result)
		if first {
			folded++
		}
	}

	co.mu.Lock()
	for _, r := range req.Results[:taken] {
		co.retireLocked(engine.UnitID{Inst: r.Inst, Prog: r.Prog})
	}
	co.retireClosedLocked()
	co.dups += taken - folded
	co.folds += folded
	ckpt := co.folds >= co.checkpointEvery
	if ckpt {
		co.folds = 0
	}
	ws := co.workers[req.WorkerID]
	if ws != nil {
		ws.retries = max(ws.retries, req.Retries)
		if elapsed > 0 {
			ws.unitTime = elapsed / time.Duration(taken)
		}
		if bad != nil {
			co.strikeLocked(req.WorkerID, ws, bad)
		}
	}
	var units []Unit
	if ws != nil && !ws.evicted {
		now := time.Now()
		ws.lastBeat = now
		deadline := now.Add(co.cfg.LeaseTTL)
		for u := range ws.leases {
			ws.leases[u] = deadline
		}
		if bad == nil {
			units = co.grantLocked(req.WorkerID, ws, req, deadline)
		}
	} else if bad == nil {
		bad = errGone
	}
	co.mu.Unlock()

	if ckpt {
		if err := co.dc.SaveCheckpoint(); err != nil {
			co.cfg.Log.Printf("dist: periodic checkpoint: %v", err)
		}
	}
	if bad == errGone {
		return nil, http.StatusGone, bad
	}
	if bad != nil {
		return nil, http.StatusConflict, bad
	}
	return &ExchangeReply{Units: units, Folded: folded, Done: co.dc.Complete()}, http.StatusOK, nil
}

// grantLocked leases units to a live worker, to deadline. A retransmission
// — the seq of the worker's last numbered exchange — gets that exchange's
// grant again: the leases it still holds, minus the units done since; an
// older seq gets nothing. Anything else is a fresh grant (freshUnitsLocked).
func (co *Coordinator) grantLocked(id int64, ws *workerState, req *ExchangeRequest, deadline time.Time) []Unit {
	var grant []Unit
	if req.Seq != 0 && req.Seq <= ws.lastSeq {
		if req.Seq < ws.lastSeq {
			return nil // a stray copy its successor overtook: nobody is waiting for this reply
		}
		for _, u := range ws.lastGrant {
			if _, ok := ws.leases[u]; ok {
				grant = append(grant, Unit{Inst: u.Inst, Prog: u.Prog})
			}
		}
		return grant
	}
	granted := co.freshUnitsLocked(ws, req.Want)
	grant = make([]Unit, len(granted))
	for i, u := range granted {
		co.leases[u], ws.leases[u] = id, deadline
		grant[i] = Unit{Inst: u.Inst, Prog: u.Prog}
	}
	if req.Seq != 0 {
		ws.lastSeq, ws.lastGrant = req.Seq, granted
	}
	return grant
}

// freshUnitsLocked picks a fresh grant of up to want units for ws. A lapsed
// lease goes alone, to a worker that holds nothing and is granted nothing
// more while it holds it: should the unit kill that worker too, no other
// unit lapses with it, so only a unit that kills its workers reaches
// maxReassign, never its neighbours in a grant. Other grants come from the
// cursor: sized in time by grantUnitsLocked, within the two grants a worker
// may hold, and tapered near the end of the campaign so that prefetching
// does not leave one worker holding the last units while the others idle.
func (co *Coordinator) freshUnitsLocked(ws *workerState, want int) []engine.UnitID {
	if len(ws.leases) == 1 {
		for u := range ws.leases {
			if co.tries[u] > 0 {
				return nil
			}
		}
	}
	for len(ws.leases) == 0 && want > 0 && len(co.requeue) > 0 {
		u := co.requeue[0]
		co.requeue = co.requeue[1:]
		if co.dc.Open(u) {
			return []engine.UnitID{u}
		}
	}
	g := co.grantUnitsLocked(ws.unitTime)
	unleased := co.dc.Remaining() - len(co.leases)
	n := max(0, min(want, g, 2*g-len(ws.leases), max(1, unleased/(2*co.live))))
	granted := make([]engine.UnitID, 0, n)
	for len(granted) < n {
		u, ok := co.dc.Next()
		if !ok {
			break
		}
		granted = append(granted, u)
	}
	return granted
}

// grantUnitsLocked is the size of a fresh grant at unitTime per unit: the
// units that fill LeaseTTL/grantShare, and at least one. An unmeasured
// worker (unitTime 0) gets one unit: a first unit may take a millisecond
// or, booting a Naive executor, a second.
func (co *Coordinator) grantUnitsLocked(unitTime time.Duration) int {
	if co.fixedGrant > 0 {
		return co.fixedGrant
	}
	if unitTime <= 0 {
		return 1
	}
	return max(1, int(co.cfg.LeaseTTL/grantShare/unitTime))
}

// strikeLocked records an integrity failure against a worker; at maxStrikes
// the worker is banned (evicted with its leases reassigned).
func (co *Coordinator) strikeLocked(id int64, ws *workerState, cause error) {
	ws.strikes++
	co.cfg.Log.Printf("dist: worker %d (%s) strike %d/%d: %v",
		id, ws.name, ws.strikes, co.maxStrikes, cause)
	if ws.strikes >= co.maxStrikes {
		co.evictLocked(id, "integrity strikes exhausted")
	}
}
