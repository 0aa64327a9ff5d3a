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

	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// Coordinator defaults.
const (
	DefaultLeaseTTL        = 10 * time.Second
	DefaultLeaseUnits      = 4
	DefaultMaxReassign     = 3
	DefaultMaxStrikes      = 2
	DefaultCheckpointEvery = 16
)

// ErrInterrupted reports a coordinator run stopped by its context with the
// campaign incomplete; the checkpoint (if configured) resumes it.
var ErrInterrupted = errors.New("dist: campaign interrupted")

// CoordinatorConfig configures a campaign coordinator.
type CoordinatorConfig struct {
	// Campaign is the campaign to run — the same engine.Config a
	// single-process run takes. CheckpointDir/Resume give the coordinator
	// crash-safety; Inject drives checkpoint-write and local-unit faults.
	Campaign engine.Config

	// LeaseTTL is how long a leased unit stays assigned without a
	// heartbeat before it is reassigned (default 10s). Workers heartbeat
	// at TTL/3.
	LeaseTTL time.Duration
	// LeaseUnits is the units per lease grant (default 4); a worker holds
	// at most two grants, one running and one prefetched.
	LeaseUnits int
	// DegradeGrace is how long the coordinator waits with zero live
	// workers before finishing the campaign locally (default 2×LeaseTTL).
	DegradeGrace time.Duration
	// MaxReassign caps per-unit reassignments; past it the unit is
	// presumed poisonous (it kills whoever runs it) and degrades to
	// guarded local execution — the quarantine path, converging to
	// single-process semantics (default 3).
	MaxReassign int
	// MaxStrikes is how many integrity failures (bad result digests,
	// out-of-bounds submissions) a worker survives before being banned
	// (default 2).
	MaxStrikes int
	// CheckpointEvery is the fsync cadence of the checkpoint log: every
	// fold appends its unit's record as it happens, and after that many
	// folds — as on completion and interruption — the file is fsynced
	// (default 16; requires Campaign.CheckpointDir).
	CheckpointEvery int
	// Log receives coordinator events; nil discards them.
	Log *log.Logger
}

func (cfg *CoordinatorConfig) fillDefaults() {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.LeaseUnits <= 0 {
		cfg.LeaseUnits = DefaultLeaseUnits
	}
	if cfg.DegradeGrace <= 0 {
		cfg.DegradeGrace = 2 * cfg.LeaseTTL
	}
	if cfg.MaxReassign <= 0 {
		cfg.MaxReassign = DefaultMaxReassign
	}
	if cfg.MaxStrikes <= 0 {
		cfg.MaxStrikes = DefaultMaxStrikes
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
}

// lease is one unit's assignment to a worker.
type lease struct {
	worker   int64
	deadline time.Time
}

// workerState tracks one joined worker.
type workerState struct {
	name     string
	lastBeat time.Time
	evicted  bool
	strikes  int
	retries  int // highest cumulative client-retry count it reported
	held     int // leases it holds

	// The last numbered exchange and what it was granted: a retransmission
	// (same seq) is answered from here.
	lastSeq   uint64
	lastGrant []engine.UnitID
}

// Coordinator owns a distributed campaign: it serves the worker protocol,
// tracks leases and worker health, folds results exactly once, reassigns
// the work of failed workers, and degrades to local execution rather than
// ever failing a campaign for lack of a fleet.
type Coordinator struct {
	cfg CoordinatorConfig
	dc  *engine.DistCampaign
	srv *http.Server
	ln  net.Listener

	mu         sync.Mutex
	workers    map[int64]*workerState
	live       int // workers not evicted
	leases     map[engine.UnitID]lease
	requeue    []engine.UnitID        // lapsed leases, granted again before the cursor moves on
	tries      map[engine.UnitID]int  // reassignment count per unit
	localOnly  map[engine.UnitID]bool // past MaxReassign: coordinator-only, guarded
	nextWorker int64
	folds      int // folded results since the last checkpoint fsync

	evictions, reassigned, dups, degraded int
	degradedNow                           bool // currently in local-fallback mode
	lastFleetActivity                     time.Time
}

// NewCoordinator builds a coordinator for cfg's campaign. With
// cfg.Campaign.Resume set, progress is restored from the checkpoint
// directory — the crash-restart path.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fillDefaults()
	dc, err := engine.NewDistCampaign(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:               cfg,
		dc:                dc,
		workers:           map[int64]*workerState{},
		leases:            map[engine.UnitID]lease{},
		tries:             map[engine.UnitID]int{},
		localOnly:         map[engine.UnitID]bool{},
		lastFleetActivity: time.Now(),
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
	mux.HandleFunc(PathHeartbeat, co.handleHeartbeat)
	mux.HandleFunc(PathLease, co.handleLease)
	mux.HandleFunc(PathSubmit, co.handleSubmit)
	co.ln = ln
	// A peer slower than a lease is as good as gone — its leases lapse
	// before its request has arrived — so it does not get to hold a
	// connection either. Workers talk at least every TTL/3.
	ttl := co.cfg.LeaseTTL
	co.srv = &http.Server{Handler: mux, ReadHeaderTimeout: ttl, ReadTimeout: 2 * ttl, IdleTimeout: 4 * ttl}
	go co.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr(), nil
}

// Addr returns the serving address (after Start).
func (co *Coordinator) Addr() net.Addr { return co.ln.Addr() }

// Run drives the campaign to completion: sweeping lapsed leases, evicting
// silent workers, running degraded units locally, and falling back to
// all-local execution if the fleet dies. It returns the campaign result —
// bit-identical to a single-process run at the same seed — or, on context
// cancellation, the partial result alongside ErrInterrupted with the
// checkpoint saved for resumption.
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

	var localErrs []error
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
		if co.dc.Complete() {
			if err := co.dc.SaveCheckpoint(); err != nil {
				return co.result(), errors.Join(err, errors.Join(localErrs...))
			}
			// Linger half a TTL before the deferred shutdown: idle workers
			// poll within that window, observe Done, and exit cleanly
			// instead of erroring against a vanished coordinator.
			linger := time.NewTimer(co.cfg.LeaseTTL / 2)
			select {
			case <-ctx.Done():
			case <-linger.C:
			}
			linger.Stop()
			return co.result(), errors.Join(localErrs...)
		}

		// Degraded units run locally through the guarded path: quarantine
		// for genuinely poisonous units, normal folding otherwise.
		if units := co.takeLocalOnly(); len(units) > 0 {
			if err := co.dc.RunLocal(ctx, units); err != nil && ctx.Err() == nil {
				localErrs = append(localErrs, err)
			}
		}

		// Fleet-death fallback: no live workers for DegradeGrace means the
		// campaign finishes locally. One chunk per tick, so a worker that
		// joins late still gets leases in between.
		if co.fleetDead() {
			if units := co.takeFallbackChunk(); len(units) > 0 {
				if err := co.dc.RunLocal(ctx, units); err != nil && ctx.Err() == nil {
					localErrs = append(localErrs, err)
				}
				co.requeueOpen(units)
			}
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
		m.DegradedLocal += rob.DegradedLocal
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
		DegradedLocal:     co.degraded,
	}
}

// sweep expires lapsed leases and evicts workers whose heartbeats stopped.
func (co *Coordinator) sweep() {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for id, w := range co.workers {
		if !w.evicted && now.Sub(w.lastBeat) > co.cfg.LeaseTTL {
			co.evictLocked(id, "heartbeat lapsed")
		}
	}
	for u, l := range co.leases {
		if now.After(l.deadline) {
			co.expireLeaseLocked(u, "lease expired")
		}
	}
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
	for u, l := range co.leases {
		if l.worker == id {
			co.expireLeaseLocked(u, "holder evicted")
		}
	}
}

// retireLocked ends unit u's lease, if it has one.
func (co *Coordinator) retireLocked(u engine.UnitID) {
	if l, ok := co.leases[u]; ok {
		delete(co.leases, u)
		co.workers[l.worker].held--
	}
}

// expireLeaseLocked queues a unit to be granted again, counting the
// reassignment and degrading chronic offenders to local-only execution.
func (co *Coordinator) expireLeaseLocked(u engine.UnitID, why string) {
	co.retireLocked(u)
	if co.dc.Done(u) {
		return
	}
	co.reassigned++
	co.tries[u]++
	if co.tries[u] <= co.cfg.MaxReassign {
		co.requeue = append(co.requeue, u)
	} else if !co.localOnly[u] {
		co.localOnly[u] = true
		co.cfg.Log.Printf("dist: unit (%d,%d) reassigned %d times (%s); degrading to guarded local execution",
			u.Inst, u.Prog, co.tries[u], why)
	}
}

// nextUnitLocked takes the next unit to schedule: a lapsed lease that is
// still open, else the campaign cursor's. Nothing it returns is leased.
func (co *Coordinator) nextUnitLocked() (engine.UnitID, bool) {
	for len(co.requeue) > 0 {
		u := co.requeue[0]
		co.requeue = co.requeue[1:]
		if co.dc.Open(u) {
			return u, true
		}
	}
	return co.dc.Next()
}

// takeLocalOnly returns the degraded units awaiting local execution.
func (co *Coordinator) takeLocalOnly() []engine.UnitID {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []engine.UnitID
	for u := range co.localOnly {
		if !co.dc.Done(u) {
			out = append(out, u)
		}
	}
	return out
}

// fleetDead reports whether no live worker has been seen for DegradeGrace;
// the first true transition counts a degraded-to-local event.
func (co *Coordinator) fleetDead() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, w := range co.workers {
		if !w.evicted {
			co.degradedNow = false
			co.lastFleetActivity = time.Now()
			return false
		}
	}
	if time.Since(co.lastFleetActivity) < co.cfg.DegradeGrace {
		return false
	}
	if !co.degradedNow {
		co.degradedNow = true
		co.degraded++
		co.cfg.Log.Printf("dist: no live workers for %v; finishing the campaign locally", co.cfg.DegradeGrace)
	}
	return true
}

// takeFallbackChunk claims up to LeaseUnits unleased units for local
// execution during fleet-death fallback.
func (co *Coordinator) takeFallbackChunk() []engine.UnitID {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []engine.UnitID
	for len(out) < co.cfg.LeaseUnits {
		u, ok := co.nextUnitLocked()
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out
}

// requeueOpen puts back the units of a fallback chunk its local run left
// open (a failed or interrupted unit): the cursor has moved past them.
func (co *Coordinator) requeueOpen(units []engine.UnitID) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, u := range units {
		if co.dc.Open(u) {
			co.requeue = append(co.requeue, u)
		}
	}
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
	co.workers[id] = &workerState{name: req.Worker, lastBeat: time.Now()}
	co.live++
	co.degradedNow = false
	co.lastFleetActivity = time.Now()
	co.mu.Unlock()
	co.cfg.Log.Printf("dist: worker %d (%s) joined", id, req.Worker)
	reply(w, &JoinReply{
		WorkerID:   id,
		LeaseTTLMS: co.cfg.LeaseTTL.Milliseconds(),
		LeaseUnits: co.cfg.LeaseUnits,
	})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readReq(w, r, &req) {
		return
	}
	co.mu.Lock()
	ws := co.workers[req.WorkerID]
	ok := ws != nil && !ws.evicted
	if ok {
		now := time.Now()
		ws.lastBeat = now
		ws.retries = max(ws.retries, req.Retries)
		deadline := now.Add(co.cfg.LeaseTTL)
		for u, l := range co.leases {
			if l.worker == req.WorkerID {
				co.leases[u] = lease{worker: req.WorkerID, deadline: deadline}
			}
		}
	}
	co.mu.Unlock()
	reply(w, &HeartbeatReply{OK: ok, Done: co.dc.Complete()})
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
		req.Max = co.cfg.LeaseUnits
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
// fsync cadence, and grants units.
//
// A result that fails its digest, does not decode, or names a unit outside
// the campaign is a worker-side integrity failure, not line noise (the
// frame already survived its digest check): the sender is struck — banned
// at MaxStrikes — the results before it stay folded, the ones after it are
// not looked at, and the call is refused with 409. Eviction revokes
// scheduling, not results: what an evicted or unknown worker brought is
// folded first, then it is refused with 410 and gets no units.
func (co *Coordinator) exchange(req *ExchangeRequest) (*ExchangeReply, int, error) {
	var bad error
	taken, folded := 0, 0
	for i := range req.Results {
		r := &req.Results[i]
		rec, err := decodeResult(r.Result, r.ResultDigest)
		first := false
		if err == nil {
			first, err = co.dc.RecordRemote(engine.UnitID{Inst: r.Inst, Prog: r.Prog}, rec, r.Draws)
		}
		if err != nil {
			bad = err
			break
		}
		taken++
		if first {
			folded++
		}
	}

	co.mu.Lock()
	for _, r := range req.Results[:taken] {
		co.retireLocked(engine.UnitID{Inst: r.Inst, Prog: r.Prog})
	}
	co.dups += taken - folded
	co.folds += folded
	ckpt := co.folds >= co.cfg.CheckpointEvery
	if ckpt {
		co.folds = 0
	}
	ws := co.workers[req.WorkerID]
	if ws != nil {
		ws.retries = max(ws.retries, req.Retries)
		if bad != nil {
			co.strikeLocked(req.WorkerID, ws, bad)
		}
	}
	var units []Unit
	if ws != nil && !ws.evicted {
		ws.lastBeat = time.Now()
		if bad == nil {
			units = co.grantLocked(req.WorkerID, ws, req)
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

// grantLocked leases units to a live worker. A retransmission — the seq of
// the worker's last numbered exchange — gets that exchange's grant again:
// the leases it still holds, refreshed, minus the units done since; an
// older seq gets nothing. Anything else is a fresh grant of up to LeaseUnits, within the two grants
// a worker may hold, and tapered near the end of the campaign so that
// prefetching does not leave one worker holding the last units while the
// others idle.
func (co *Coordinator) grantLocked(id int64, ws *workerState, req *ExchangeRequest) []Unit {
	deadline := time.Now().Add(co.cfg.LeaseTTL)
	var grant []Unit
	if req.Seq != 0 && req.Seq <= ws.lastSeq {
		if req.Seq < ws.lastSeq {
			return nil // a stray copy its successor overtook: nobody is waiting for this reply
		}
		for _, u := range ws.lastGrant {
			if l, ok := co.leases[u]; ok && l.worker == id {
				co.leases[u] = lease{worker: id, deadline: deadline}
				grant = append(grant, Unit{Inst: u.Inst, Prog: u.Prog})
			}
		}
		return grant
	}
	unleased := co.dc.Remaining() - len(co.leases)
	n := min(req.Want, co.cfg.LeaseUnits, 2*co.cfg.LeaseUnits-ws.held, max(1, unleased/(2*co.live)))
	var granted []engine.UnitID
	for len(granted) < n {
		u, ok := co.nextUnitLocked()
		if !ok {
			break
		}
		co.leases[u] = lease{worker: id, deadline: deadline}
		granted = append(granted, u)
		grant = append(grant, Unit{Inst: u.Inst, Prog: u.Prog})
	}
	ws.held += len(granted)
	if req.Seq != 0 {
		ws.lastSeq, ws.lastGrant = req.Seq, granted
	}
	return grant
}

// strikeLocked records an integrity failure against a worker; at MaxStrikes
// the worker is banned (evicted with its leases reassigned).
func (co *Coordinator) strikeLocked(id int64, ws *workerState, cause error) {
	ws.strikes++
	co.cfg.Log.Printf("dist: worker %d (%s) strike %d/%d: %v",
		id, ws.name, ws.strikes, co.cfg.MaxStrikes, cause)
	if ws.strikes >= co.cfg.MaxStrikes {
		co.evictLocked(id, "integrity strikes exhausted")
	}
}
