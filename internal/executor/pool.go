package executor

import (
	"context"
	"fmt"

	"github.com/sith-lab/amulet-go/internal/uarch"
)

// Pool builds executors from one configuration and defense factory. No
// campaign code uses it — each engine worker builds its executor with New.
// It stays only because bench/replica.go compiles against it, and goes
// when the benchmark's replica does.
type Pool struct {
	cfg     Config
	factory func() uarch.Defense
}

// NewPool builds a pool after checking its configuration. A non-positive
// size or a nil factory is a configuration error — returned, not panicked,
// so a long-lived service embedding campaigns survives a bad request.
func NewPool(cfg Config, factory func() uarch.Defense, size int) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("executor: pool size must be >= 1, got %d", size)
	}
	if factory == nil {
		return nil, fmt.Errorf("executor: pool needs a defense factory")
	}
	return &Pool{cfg: cfg, factory: factory}, nil
}

// Acquire returns a new executor with its own defense instance. It never
// blocks and never fails: the context and the error are kept only so that
// bench/replica.go compiles unchanged.
func (p *Pool) Acquire(context.Context) (*Executor, error) {
	return New(p.cfg, p.factory()), nil
}
