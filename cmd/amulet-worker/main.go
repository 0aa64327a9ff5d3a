// Command amulet-worker runs the executing side of a distributed
// AMuLeT-Go campaign: it joins a coordinator (cmd/amulet-coordinator),
// leases work units, runs them on a persistent executor, and submits the
// results. Workers are disposable — kill one at any instant and the
// coordinator reassigns its units with no effect on the final violation
// set.
//
// The campaign flags must match the coordinator's exactly; the join
// handshake refuses mismatches.
//
// The -fault-* flags arm deterministic network-fault injection on this
// worker's transport (CI's distributed smoke runs a worker with
// -fault-drop-every under SIGKILL); they are test instrumentation, not for
// production use.
//
// Exit status: 0 when the campaign completes, 3 when interrupted by
// signal, 1 on failure (unreachable coordinator, eviction budget
// exhausted, severed transport).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/experiments"
	"github.com/sith-lab/amulet-go/internal/faultinject"
	_ "github.com/sith-lab/amulet-go/internal/isa/wasm" // register the stack frontend
)

const exitPartial = 3

func main() {
	fs := flag.CommandLine
	cf := experiments.AddCampaignFlags(fs)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:9131", "coordinator base URL")
		name        = fs.String("name", "", "worker name in coordinator logs (default host:pid)")
		dropEvery   = fs.Int("fault-drop-every", 0, "TESTING: drop every n-th RPC response on this worker's transport")
		severAfter  = fs.Int("fault-sever-after", 0, "TESTING: sever this worker's transport after n RPCs")
	)
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ecfg, err := cf.EngineConfig()
	if err != nil {
		fatal(err)
	}
	if *dropEvery > 0 || *severAfter > 0 {
		inj := faultinject.New()
		if *dropEvery > 0 {
			inj.ArmDropEvery(*dropEvery)
		}
		if *severAfter > 0 {
			inj.ArmSever(*severAfter)
		}
		ecfg.Inject = inj
	}

	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Campaign:    ecfg,
		Log:         log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds),
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = w.Run(ctx)
	switch {
	case err == nil:
		fmt.Printf("worker %s: campaign complete (%d units run)\n", *name, w.UnitsRun())
	case errors.Is(err, context.Canceled):
		fmt.Printf("worker %s: interrupted (%d units run)\n", *name, w.UnitsRun())
		os.Exit(exitPartial)
	default:
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amulet-worker:", err)
	os.Exit(1)
}
