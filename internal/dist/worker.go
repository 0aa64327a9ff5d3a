package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sith-lab/amulet-go/internal/engine"
)

// WorkerConfig configures a campaign worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Name identifies the worker in coordinator logs and seeds its retry
	// jitter; it carries no campaign semantics.
	Name string
	// Campaign must match the coordinator's campaign exactly — the join
	// handshake compares config fingerprints and refuses mismatches.
	// Campaign.Inject (nil in production) drives both unit-level faults
	// (injected panics kill the worker, exercising reassignment) and
	// transport faults (drops, delays, severs) on this worker's client.
	Campaign engine.Config
	// Log receives worker events; nil discards them.
	Log *log.Logger
}

// maxRejoins caps how many times an evicted worker rejoins for a fresh
// identity before giving up.
const maxRejoins = 3

// errCampaignDone is serve's "the campaign is complete", learned from an
// exchange reply, a heartbeat's included; Run maps it to a clean exit.
var errCampaignDone = errors.New("dist: campaign complete")

// Worker is the executing side of a distributed campaign: it joins a
// coordinator and runs leased units on a persistent executor, one exchange
// always in flight beside the simulation — the last batch's results out,
// the batch after next in — and an empty one every TTL/3, its heartbeat,
// so that its leases survive long units. A worker is deliberately
// stateless between units: everything it knows is (campaign config, unit
// coordinates), so killing one at any instant loses nothing but time.
type Worker struct {
	cfg    WorkerConfig
	runner *engine.UnitRunner
	client *Client
	units  atomic.Int64
	// cut maps an instance to the lowest program in it this worker found
	// violating, under stop-on-first: the units past it are dead work.
	cut map[int]int
}

// NewWorker builds a worker and its executor, once, not per unit.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	runner, err := engine.NewUnitRunner(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	return &Worker{
		cfg:    cfg,
		runner: runner,
		client: NewClient(cfg.Coordinator, cfg.Campaign.Inject, int64(h.Sum64())),
		cut:    map[int]int{},
	}, nil
}

// UnitsRun reports how many units this worker has run and the coordinator
// has acknowledged the results of.
func (w *Worker) UnitsRun() int { return int(w.units.Load()) }

// Run executes the worker loop until the campaign completes (nil), the
// context is cancelled (ctx.Err()), or the coordinator becomes
// unreachable beyond the retry budget (the transport error).
//
// Injected unit panics are NOT recovered: a worker that hits one dies,
// exactly like a real simulator bug would kill a real worker process —
// the coordinator's lease expiry reassigns the unit, which is the
// mechanism under test.
func (w *Worker) Run(ctx context.Context) error {
	inst, progs := w.cfg.Campaign.Campaign.Instances, w.cfg.Campaign.Campaign.Base.Programs
	for rejoin := 0; ; rejoin++ {
		if rejoin > maxRejoins {
			return fmt.Errorf("dist: worker %s: evicted %d times; giving up", w.cfg.Name, rejoin-1)
		}
		jr, err := w.client.Join(ctx, &JoinRequest{
			Worker:    w.cfg.Name,
			ConfigFP:  w.runner.ConfigFP(),
			Frontend:  w.runner.FrontendName(),
			Instances: inst,
			Programs:  progs,
		})
		if err != nil {
			return err
		}
		w.cfg.Log.Printf("dist: worker %s joined as %d", w.cfg.Name, jr.WorkerID)
		err = w.serve(ctx, jr)
		if errors.Is(err, errCampaignDone) {
			return nil
		}
		if !errors.Is(err, ErrEvicted) {
			return err
		}
		// Evicted (we were silent for a TTL, or the coordinator restarted
		// and forgot us): rejoin under a fresh identity. Results already
		// delivered stay folded; the leases we held lapse and are granted
		// again, to us or to someone else.
		w.cfg.Log.Printf("dist: worker %s evicted; rejoining", w.cfg.Name)
	}
}

// flight is the outcome of one exchange, delivered when its reply arrives.
type flight struct {
	reply *ExchangeReply
	err   error
	sent  int // results the request carried; the reply acknowledges them
}

// serve is one join's worth of work: run a batch while the exchange that
// delivers the previous batch's results and leases the batch after next is
// in flight, until done or the identity dies. It holds at most two grants
// — the one it runs and the one the reply in flight brings — and waits for
// the network only when an exchange takes longer than a batch.
func (w *Worker) serve(ctx context.Context, jr *JoinReply) error {
	ttl := time.Duration(jr.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}

	// runCtx carries the simulation and the heartbeats; eviction, a dead
	// transport and completion end it, with their cause. Exchanges run on
	// netCtx, which a completion verdict leaves alone so that the
	// acknowledgement in flight can still land.
	runCtx, cancel := context.WithCancelCause(ctx)
	netCtx, stopNet := context.WithCancel(ctx)
	var bg sync.WaitGroup
	defer func() {
		cancel(nil)
		stopNet()
		bg.Wait()
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		w.heartbeat(runCtx, cancel, jr.WorkerID, ttl)
	}()

	var seq uint64
	send := func(results []UnitResult) <-chan flight {
		seq++
		req := &ExchangeRequest{WorkerID: jr.WorkerID, Seq: seq, Results: results, Want: GrantAll, Retries: w.client.Retries()}
		ch := make(chan flight, 1)
		bg.Add(1)
		go func() {
			defer bg.Done()
			reply, err := w.client.Exchange(netCtx, req)
			if err != nil {
				cancel(err) // no use simulating for a coordinator that will not hear of it
			}
			ch <- flight{reply, err, len(results)}
		}()
		return ch
	}
	inflight := send(nil)
	// ended maps the cancelled runCtx to serve's result. Told by a
	// heartbeat that the campaign is complete, the exchange in flight
	// carries results the coordinator has folded, and the coordinator
	// lingers TTL/2 to answer such calls: wait that long for the
	// acknowledgement, so that UnitsRun comes out exact.
	ended := func(err error) error {
		err = unwrapCause(runCtx, err)
		if errors.Is(err, errCampaignDone) && inflight != nil {
			select {
			case fl := <-inflight:
				if fl.err == nil {
					w.units.Add(int64(fl.sent))
				}
			case <-time.After(ttl / 2):
			case <-ctx.Done():
			}
		}
		return err
	}

	var batch []Unit
	for {
		results, err := w.runBatch(runCtx, batch)
		if err != nil {
			return ended(err)
		}
		var fl flight
		select {
		case fl = <-inflight:
		case <-runCtx.Done():
			return ended(runCtx.Err())
		}
		inflight = nil
		if fl.err != nil {
			return unwrapCause(runCtx, fl.err)
		}
		w.units.Add(int64(fl.sent))
		if dups := fl.sent - fl.reply.Folded; dups > 0 {
			w.cfg.Log.Printf("dist: worker %s: %d of %d results were duplicates", w.cfg.Name, dups, fl.sent)
		}
		if len(fl.reply.Units) == 0 {
			if fl.reply.Done {
				// Exit before the coordinator's server goes away. Results not
				// sent yet are duplicates: a complete campaign has folded
				// every unit.
				return errCampaignDone
			}
			if len(results) == 0 {
				// Nothing assignable right now (other workers hold the
				// remaining leases); poll again within the TTL.
				select {
				case <-runCtx.Done():
					return ended(runCtx.Err())
				case <-time.After(ttl / 4):
				}
			}
		}
		inflight = send(results)
		batch = fl.reply.Units
	}
}

// runBatch runs the batch's units and encodes their results for the wire,
// into one buffer: a result's slice stays valid when a later append moves
// the buffer, since the old array keeps its bytes. Under stop-on-first it
// skips the units past a violation it found: the coordinator's cut will
// close them once that violation folds, and retire their leases.
func (w *Worker) runBatch(ctx context.Context, batch []Unit) ([]UnitResult, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	stopOnFirst := w.cfg.Campaign.Campaign.Base.StopOnFirstViolation
	results := make([]UnitResult, 0, len(batch))
	buf := make([]byte, 0, resultCap*len(batch))
	for _, u := range batch {
		if p, ok := w.cut[u.Inst]; ok && u.Prog > p {
			continue
		}
		rec, draws, err := w.runner.Run(ctx, engine.UnitID{Inst: u.Inst, Prog: u.Prog})
		if err != nil {
			return nil, err
		}
		if stopOnFirst && len(rec.Violations) > 0 {
			w.cut[u.Inst] = u.Prog // never above the old cut: the units past it are skipped
		}
		start := len(buf)
		if buf, err = rec.AppendBinary(buf); err != nil {
			return nil, fmt.Errorf("dist: encode result: %w", err)
		}
		raw := buf[start:len(buf):len(buf)]
		results = append(results, UnitResult{Inst: u.Inst, Prog: u.Prog, Draws: draws, ResultDigest: Digest(raw), Result: raw})
	}
	return results, nil
}

// heartbeat sends an empty, unnumbered exchange every TTL/3 until ctx ends:
// it renews the worker's leases, so that they survive units longer than the
// TTL. An eviction (410) or completion verdict, or a transport that stays
// dead, ends ctx through cancel.
func (w *Worker) heartbeat(ctx context.Context, cancel context.CancelCauseFunc, id int64, ttl time.Duration) {
	tick := ttl / 3
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		rep, err := w.client.Exchange(ctx, &ExchangeRequest{WorkerID: id, Retries: w.client.Retries()})
		switch {
		case err != nil:
			if ctx.Err() == nil {
				cancel(err)
			}
			return
		case rep.Done:
			cancel(errCampaignDone)
			return
		}
	}
}

// unwrapCause maps a call error caused by the heartbeat goroutine's
// cancellation back to its cause (eviction, a dead transport), so
// Run's rejoin logic sees ErrEvicted rather than a bare context error.
func unwrapCause(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			return cause
		}
		return ctx.Err()
	}
	return err
}
