// Command amulet-coordinator runs the coordinator side of a distributed
// AMuLeT-Go campaign: it shards the campaign's work units across workers
// (cmd/amulet-worker) over HTTP and folds their results into a final
// summary bit-identical to a single-process `amulet` run at the same seed.
//
// Usage:
//
//	amulet-coordinator -defense invisispec -instances 2 -programs 40 \
//	    -listen 127.0.0.1:9131 -checkpoint /tmp/ck
//	amulet-worker -defense invisispec -instances 2 -programs 40 \
//	    -coordinator http://127.0.0.1:9131       # on each worker machine
//
// Both binaries take the same campaign flags and must be given identical
// values; the join handshake rejects mismatches. The coordinator tolerates
// worker failure (lease expiry reassigns their units, and a unit that kills
// four workers is quarantined unrun), waits for a worker to join if every
// worker dies, and — with -checkpoint — survives its own death: restart
// with -resume and the campaign continues from the persisted units. The
// same log resumes under `amulet -resume`, which finishes a campaign no
// fleet will.
//
// Exit status: 0 on a complete campaign, 3 when interrupted with partial
// results (resumable via -resume when checkpointing), 1 on failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/dist"
	"github.com/sith-lab/amulet-go/internal/experiments"
	_ "github.com/sith-lab/amulet-go/internal/isa/wasm" // register the stack frontend
)

const exitPartial = 3

func main() {
	fs := flag.CommandLine
	cf := experiments.AddCampaignFlags(fs)
	var (
		listen   = fs.String("listen", "127.0.0.1:9131", "address to serve the worker protocol on")
		leaseTTL = fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease deadline: a worker silent this long (workers exchange at least every TTL/3) is evicted and its units reassigned")
		ckptDir  = fs.String("checkpoint", "", "checkpoint directory: persist campaign progress there (atomically); a restarted coordinator resumes from it")
		resume   = fs.Bool("resume", false, "resume the campaign from -checkpoint")
		timeout  = fs.Duration("timeout", 0, "abort the campaign after this duration, reporting partial results (0 = no limit)")
		quiet    = fs.Bool("quiet", false, "suppress coordinator event logging")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint <dir>"))
	}
	ecfg, err := cf.EngineConfig()
	if err != nil {
		fatal(err)
	}
	ecfg.CheckpointDir = *ckptDir
	ecfg.Resume = *resume

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	if *quiet {
		logger = nil
	}
	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Campaign: ecfg,
		LeaseTTL: *leaseTTL,
		Log:      logger,
	})
	if err != nil {
		fatal(err)
	}
	addr, err := co.Start(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinating %s on %s: %d instance(s) x %d program(s), lease ttl %v\n",
		*cf.Defense, addr, *cf.Instances, *cf.Programs, *leaseTTL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := co.Run(ctx)
	exitCode := 0
	if err != nil {
		// Run joins its errors, and errors.Join's text puts each on a line
		// of its own.
		fmt.Printf("campaign incomplete (%s); partial results:\n", strings.ReplaceAll(err.Error(), "\n", "; "))
		if errors.Is(err, dist.ErrInterrupted) {
			exitCode = exitPartial
		} else {
			exitCode = 1
		}
	}
	experiments.WriteSummary(os.Stdout, res)
	if exitCode == exitPartial && *ckptDir != "" {
		fmt.Printf("resumable: rerun with -resume to continue from %s\n",
			filepath.Join(*ckptDir, checkpoint.FileName))
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amulet-coordinator:", err)
	os.Exit(1)
}
