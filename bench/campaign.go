package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/engine"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
)

// outcome is one complete campaign through a real entry point, as the
// harness saw it from outside.
type outcome struct {
	res *fuzzer.CampaignResult
	// wall is the harness-measured time the throughput is taken over: the
	// whole entry-point call for engine campaigns (pool build and boot
	// included — users pay them per campaign); for dist-loopback it stops
	// when the workers have submitted every unit, and the fixed completion
	// tail (lease tick + linger) is reported separately.
	wall time.Duration
	tail time.Duration // dist only: Coordinator.Run return − last submit

	// dist only.
	workerUnits []int
	robustness  executor.Metrics
}

// fingerprint is the campaign's determinism fingerprint.
func (o *outcome) fingerprint() uint64 { return fuzzer.ViolationFingerprint(o.res.Violations) }

// fpString renders a fingerprint the way golden.json and the result files
// carry it.
func fpString(fp uint64) string { return fmt.Sprintf("%#x", fp) }

// unitsRun counts the work units that executed (under stop-on-first that
// includes units past an instance's cut: their counters are kept).
func (o *outcome) unitsRun() int {
	n := 0
	for _, in := range o.res.Instances {
		if in != nil {
			n += in.Programs
		}
	}
	return n
}

// necessaryUnits is the deterministic amount of work the campaign needed:
// every unit, or under stop-on-first every unit up to and including each
// instance's first violating program.
func necessaryUnits(cfg engine.Config, res *fuzzer.CampaignResult) int {
	programs := cfg.Campaign.Base.Programs
	if !cfg.Campaign.Base.StopOnFirstViolation {
		return cfg.Campaign.Instances * programs
	}
	n := 0
	for _, in := range res.Instances {
		if in != nil && len(in.Violations) > 0 {
			n += in.Violations[0].ProgramIndex + 1
		} else {
			n += programs
		}
	}
	return n
}

// degradedUnits counts units the engine quarantined or timed out.
func degradedUnits(res *fuzzer.CampaignResult) int {
	m := res.Totals().Metrics
	return m.Quarantined + m.TimedOut
}

// runEngine runs cfg through engine.RunCampaign and times the call.
func runEngine(ctx context.Context, cfg engine.Config) (*outcome, error) {
	t0 := time.Now()
	res, err := engine.RunCampaign(ctx, cfg)
	wall := time.Since(t0)
	if res == nil {
		return nil, err
	}
	return &outcome{res: res, wall: wall}, err
}

// runDist runs cfg through a dist.Coordinator and nWorkers in-process
// dist.Workers on 127.0.0.1. via, when non-nil, is a proxy the workers dial
// instead of the coordinator (the traced pass counts RPCs and bytes there).
func runDist(ctx context.Context, cfg engine.Config, ttl time.Duration, nWorkers int, via *countingProxy) (*outcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	nUnits := cfg.Campaign.Instances * cfg.Campaign.Base.Programs

	t0 := time.Now()
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{Campaign: cfg, LeaseTTL: ttl})
	if err != nil {
		return nil, err
	}
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + addr.String()
	if via != nil {
		if base, err = via.start(addr.String()); err != nil {
			return nil, err
		}
		defer via.stop()
	}

	workers := make([]*dist.Worker, nWorkers)
	workerErrs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: base, Name: fmt.Sprintf("bench-w%d", i), Campaign: cfg})
		if err != nil {
			cancel()
			co.Run(ctx) //nolint:errcheck // shuts the listener down; the NewWorker error is what matters
			wg.Wait()
			return nil, err
		}
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	// Steady-state clock: poll the workers' submit counters until every
	// unit is in, so the fixed lease-tick + linger tail of Coordinator.Run
	// does not dilute the throughput.
	steady := make(chan time.Time, 1)
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				n := 0
				for _, w := range workers {
					n += w.UnitsRun()
				}
				if n >= nUnits {
					steady <- now
					return
				}
			}
		}
	}()

	res, runErr := co.Run(ctx)
	end := time.Now()
	cancel()
	wg.Wait()
	<-pollDone

	o := &outcome{res: res, wall: end.Sub(t0), robustness: co.Robustness()}
	select {
	case at := <-steady:
		o.wall = at.Sub(t0)
		o.tail = end.Sub(at)
	default:
		runErr = errors.Join(runErr, fmt.Errorf("dist: coordinator returned before the workers submitted all %d units", nUnits))
	}
	for i, w := range workers {
		o.workerUnits = append(o.workerUnits, w.UnitsRun())
		// A worker cancelled after the coordinator finished is a clean exit.
		if err := workerErrs[i]; err != nil && !errors.Is(err, context.Canceled) {
			runErr = errors.Join(runErr, fmt.Errorf("worker %d: %w", i, err))
		}
	}
	return o, runErr
}

// robustnessTotal sums the dist robustness counters; a clean loopback run
// must leave all of them at zero.
func robustnessTotal(m executor.Metrics) int {
	return m.Retries + m.Evictions + m.Reassigned + m.DuplicatesDropped + m.DegradedLocal
}
