package executor

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// acquire returns a pooled executor for cfg from a fresh one-executor pool.
func acquire(t testing.TB, cfg Config, factory func() uarch.Defense) *Executor {
	t.Helper()
	p, err := NewPool(cfg, factory, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// forgetSharedBoot drops the shared checkpoint of e's configuration, so the
// next pooled start builds it again: a test can then count that one boot
// whatever ran earlier in the process.
func forgetSharedBoot(e *Executor) {
	bootCPMu.Lock()
	delete(bootCPs, e.boot.key)
	bootCPMu.Unlock()
}

// sharedCheckpoint returns the checkpoint filed under e's key, or nil when
// none is.
func sharedCheckpoint(e *Executor) *uarch.UarchState {
	bootCPMu.Lock()
	b, ok := bootCPs[e.boot.key]
	bootCPMu.Unlock()
	if !ok {
		return nil
	}
	<-b.done
	return b.st
}

// TestSharedBootOncePerProcess: pools on one key, acquired and started
// concurrently, simulate the boot exactly once between them, and a pool
// created afterwards (the next campaign) simulates none.
func TestSharedBootOncePerProcess(t *testing.T) {
	cfg := poolConfig()
	cfg.BootInsts = 613 // a key no other test uses
	forgetSharedBoot(acquire(t, cfg, nopFactory))

	const pools = 4
	execs := make([]*Executor, pools)
	errs := make([]error, pools)
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewPool(cfg, nopFactory, 1)
			if err != nil {
				errs[i] = err
				return
			}
			if execs[i], err = p.Acquire(context.Background()); err != nil {
				errs[i] = err
				return
			}
			prog, sb, in, _ := genProgram(3)
			if err := execs[i].LoadProgram(prog, sb); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = execs[i].Run(in)
		}()
	}
	wg.Wait()
	boots := 0
	for i, e := range execs {
		if errs[i] != nil {
			t.Fatalf("pool %d: %v", i, errs[i])
		}
		m := e.Metrics()
		if m.Starts != 1 {
			t.Errorf("pool %d: starts = %d, want 1", i, m.Starts)
		}
		boots += m.BootRuns
	}
	if boots != 1 {
		t.Errorf("%d concurrent pools simulated the boot %d times, want once", pools, boots)
	}

	late := acquire(t, cfg, nopFactory)
	prog, sb, _, _ := genProgram(3)
	if err := late.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	if got := late.Metrics().BootRuns; got != 0 {
		t.Errorf("a pool on a warm key booted %d times", got)
	}
}

// TestSharedBootKeysSeparate: configurations that differ in anything the
// boot reads — the L1D geometry, the defense (patched or not), the boot
// length — never share a checkpoint. A shared one across cache geometries
// would panic in RestoreUarch.
func TestSharedBootKeysSeparate(t *testing.T) {
	base := poolConfig()
	base.BootInsts = 617 // keys no other test uses
	ways := base
	ways.Core.Hier.L1D.Ways = 4
	longer := base
	longer.BootInsts = 619
	unpatched := func() uarch.Defense { return invisispec.New(invisispec.Config{}) }
	patched := func() uarch.Defense { return invisispec.New(invisispec.Config{PatchUV1: true}) }

	variants := []struct {
		name    string
		cfg     Config
		factory func() uarch.Defense
	}{
		{"base", base, unpatched},
		{"l1d-4-ways", ways, unpatched},
		{"boot-619", longer, unpatched},
		{"patched", base, patched},
	}
	owner := map[*uarch.UarchState]string{}
	for _, v := range variants {
		e := acquire(t, v.cfg, v.factory)
		prog, sb, in, _ := genProgram(4)
		if err := e.LoadProgram(prog, sb); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if _, err := e.Run(in); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		st := sharedCheckpoint(e)
		if st == nil {
			t.Fatalf("%s: no shared checkpoint after a start", v.name)
		}
		if other, ok := owner[st]; ok {
			t.Errorf("%s shares %s's post-boot checkpoint", v.name, other)
		}
		owner[st] = v.name
	}
}

// TestSharedBootFailureNotCached: a boot that fails (a 20 000-instruction
// boot cannot finish in 1000 cycles) is returned from the start, leaves the
// executor un-started, is not cached, and is simulated — and fails — again
// on retry.
func TestSharedBootFailureNotCached(t *testing.T) {
	cfg := poolConfig()
	cfg.BootInsts = DefaultBootInsts
	cfg.Core.MaxCycles = 1000
	defenses := 0
	factory := func() uarch.Defense { defenses++; return uarch.NopDefense{} }
	e := acquire(t, cfg, factory) // the pooled executor's own defense
	forgetSharedBoot(e)
	prog, sb, _, _ := genProgram(5)
	for try := 1; try <= 2; try++ {
		err := e.LoadProgram(prog, sb)
		if !errors.Is(err, uarch.ErrMaxCycles) {
			t.Fatalf("try %d: start returned %v, want ErrMaxCycles", try, err)
		}
		if e.started {
			t.Fatalf("try %d: a failed start left the executor started", try)
		}
		bootCPMu.Lock()
		_, cached := bootCPs[e.boot.key]
		bootCPMu.Unlock()
		if cached {
			t.Fatalf("try %d: the failed build was cached", try)
		}
		if want := 1 + try; defenses != want {
			t.Fatalf("try %d: %d defenses built, want %d (one throwaway boot executor per try)", try, defenses, want)
		}
	}
	if m := e.Metrics(); m.Starts != 0 || m.BootRuns != 2 {
		t.Errorf("starts=%d boots=%d, want 0 starts and 2 failed boots", m.Starts, m.BootRuns)
	}
}

// TestBootLeavesNoState pins the premise of sharing one checkpoint: the boot
// leaves no micro-architectural state behind, so the post-boot checkpoint
// is exactly a reset core's context. If a change lets the boot warm caches
// or predictors, this fails — and bootKey must then cover whatever the
// warmed state depends on.
func TestBootLeavesNoState(t *testing.T) {
	cfg := poolConfig()
	cfg.BootInsts = DefaultBootInsts
	e := acquire(t, cfg, nopFactory)
	prog, sb, _, _ := genProgram(6)
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	reset := New(cfg, nil)
	reset.Core().ResetUarch()
	if !reflect.DeepEqual(reset.Core().SaveUarch(), sharedCheckpoint(e)) {
		t.Error("the post-boot checkpoint differs from a reset core's context: the boot left state behind")
	}
}

// TestPoolWarmStartAllocs pins the memory side of the shared checkpoint: on
// a warm key, a new pool's executor and its first start allocate well under
// a megabyte — no boot-sized instruction arena, no private checkpoint copy.
func TestPoolWarmStartAllocs(t *testing.T) {
	cfg := poolConfig()
	cfg.BootInsts = DefaultBootInsts
	prog, sb, _, _ := genProgram(2)
	if err := acquire(t, cfg, nopFactory).LoadProgram(prog, sb); err != nil {
		t.Fatal(err) // warms the key
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewPool(cfg, nopFactory, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(prog, sb); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Acquire + first LoadProgram on a warm key: %d bytes", got)
	if got >= budget {
		t.Errorf("Acquire + first LoadProgram on a warm key allocated %d bytes, want < %d", got, budget)
	}
	if boots := e.Metrics().BootRuns; boots != 0 {
		t.Errorf("a pooled executor on a warm key booted %d times", boots)
	}
}
