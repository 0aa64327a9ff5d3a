package executor

import (
	"errors"
	"sync"

	"github.com/sith-lab/amulet-go/internal/uarch"
)

// bootKey names one shared post-boot checkpoint. It covers everything the
// boot run reads — the core configuration, the boot length and the defense
// (Name separates the patched variants) — so configurations that differ in
// any of them never share a checkpoint: Cache.Restore panics on a geometry
// mismatch.
type bootKey struct {
	core    uarch.Config
	insts   int
	defense string
}

// bootBuild is one key's checkpoint. done closes when the build finished;
// st and err are read only after that.
type bootBuild struct {
	done chan struct{}
	st   *uarch.UarchState
	err  error
}

// bootCPs is the process-wide registry of post-boot checkpoints, at most one
// per key. Every pooled executor of a key restores from the same read-only
// state (RestoreUarch only reads its source), so a process pays the boot
// workload once per configuration, not once per worker or per campaign.
var (
	bootCPMu sync.Mutex
	bootCPs  = map[bootKey]*bootBuild{}
)

// bootSource is how a pooled executor reaches the shared checkpoint of its
// configuration: the key it is filed under, and the configuration and
// defense factory that build it.
type bootSource struct {
	key     bootKey
	cfg     Config
	factory func() uarch.Defense
}

// newBootSource files e's configuration under its key; factory must build
// the defense e runs.
func newBootSource(e *Executor, factory func() uarch.Defense) *bootSource {
	cfg := e.cfg
	cfg.Coverage = false // the boot suspends coverage; no map to allocate
	return &bootSource{
		key:     bootKey{core: cfg.Core, insts: cfg.BootInsts, defense: e.core.Defense().Name()},
		cfg:     cfg,
		factory: factory,
	}
}

// checkpoint returns the key's post-boot state, building it if no caller has
// yet; built reports whether this call ran the boot. Concurrent first
// callers wait for the one build. A failed build is returned to the callers
// that waited on it and then forgotten, so a later start retries.
func (s *bootSource) checkpoint() (st *uarch.UarchState, built bool, err error) {
	bootCPMu.Lock()
	b, ok := bootCPs[s.key]
	if !ok {
		b = &bootBuild{done: make(chan struct{})}
		bootCPs[s.key] = b
	}
	bootCPMu.Unlock()
	if ok {
		<-b.done
		return b.st, false, b.err
	}
	defer func() {
		if b.st == nil {
			if b.err == nil { // the build panicked; waiters must not hang
				b.err = errors.New("executor: boot checkpoint build panicked")
			}
			bootCPMu.Lock()
			delete(bootCPs, s.key)
			bootCPMu.Unlock()
		}
		close(b.done)
	}()
	b.st, b.err = s.build()
	return b.st, true, b.err
}

// build simulates the boot on a throwaway executor and saves the post-boot
// context. The executor, and the boot-sized dynamic-instruction arena its
// core grew, are dropped afterwards: no pooled core ever runs the boot.
func (s *bootSource) build() (*uarch.UarchState, error) {
	x := New(s.cfg, s.factory())
	x.core.ResetUarch()
	if err := x.runBoot(); err != nil {
		return nil, err
	}
	x.core.ResetUarch()
	return x.core.SaveUarch(), nil
}
