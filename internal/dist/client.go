package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sith-lab/amulet-go/internal/faultinject"
)

// Client-side terminal errors. Neither is retried: a severed transport
// never heals (the fault model is "cable pulled"), and an evicted worker
// must rejoin for a fresh identity rather than hammer a dead one.
var (
	// ErrSevered reports a transport severed by fault injection.
	ErrSevered = errors.New("dist: transport severed")
	// ErrEvicted reports that the coordinator no longer recognizes this
	// worker (lease lapsed, or banned); the caller rejoins.
	ErrEvicted = errors.New("dist: worker evicted by coordinator")
)

// Client is the worker side of the coordinator protocol: a retrying
// HTTP caller. Every call retries transient failures — connection
// errors, 5xx, dropped or corrupt responses — with capped exponential
// backoff plus jitter, so a coordinator that crashes and restarts within
// the retry budget is invisible to the worker. 4xx responses are permanent
// (a config mismatch does not heal by retrying).
//
// Safe for concurrent use (the heartbeat goroutine shares it with the
// exchange in flight).
type Client struct {
	base string
	hc   *http.Client
	inj  *faultinject.Injector

	retries atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand // jitter only; never touches campaign determinism
}

// A call makes at most maxAttempts attempts; the first retry waits backoff,
// doubling per attempt up to backoffCap, so a call survives ~6s of
// coordinator outage before giving up.
const (
	maxAttempts = 8
	backoff     = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// NewClient builds a client for the coordinator at base (e.g.
// "http://127.0.0.1:9131"). inj (nil in production) injects transport
// faults; jitterSeed seeds the backoff jitter so worker herds desynchronize
// deterministically in tests.
func NewClient(base string, inj *faultinject.Injector, jitterSeed int64) *Client {
	return &Client{
		base: base,
		hc:   &http.Client{},
		inj:  inj,
		rng:  rand.New(rand.NewSource(jitterSeed)),
	}
}

// Retries returns the cumulative retry count across all calls — what the
// worker reports in every exchange, its heartbeats included, so the
// coordinator's robustness counters include client-side recovery.
func (c *Client) Retries() int { return int(c.retries.Load()) }

// Join and Exchange are the worker's protocol calls; Lease and Submit are
// Exchange's single-step forms.

func (c *Client) Join(ctx context.Context, req *JoinRequest) (*JoinReply, error) {
	reply := &JoinReply{}
	return reply, c.call(ctx, PathJoin, req, reply)
}

func (c *Client) Exchange(ctx context.Context, req *ExchangeRequest) (*ExchangeReply, error) {
	reply := &ExchangeReply{}
	return reply, c.call(ctx, PathExchange, req, reply)
}

func (c *Client) Lease(ctx context.Context, req *LeaseRequest) (*LeaseReply, error) {
	reply := &LeaseReply{}
	return reply, c.call(ctx, PathLease, req, reply)
}

func (c *Client) Submit(ctx context.Context, req *SubmitRequest) (*SubmitReply, error) {
	reply := &SubmitReply{}
	return reply, c.call(ctx, PathSubmit, req, reply)
}

// call posts a sealed request and unseals the reply, retrying transient
// failures with the same bytes. Every call is idempotent or exactly-once
// server-side — results fold once per unit, and an exchange's sequence
// number makes its retransmission earn the same grant, not a second one —
// so retrying a call whose response was lost is always safe; that is
// precisely how duplicate results arise, and why the coordinator
// deduplicates.
func (c *Client) call(ctx context.Context, path string, req, reply any) error {
	body, err := Seal(req)
	if err != nil {
		return err
	}
	wait := backoff
	var last error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := c.sleep(ctx, c.jittered(wait)); err != nil {
				return errors.Join(err, last)
			}
			wait = min(2*wait, backoffCap)
		}

		f := c.inj.RPC()
		if f.Severed {
			// The network is gone, not flaky: fail the call unsent and let
			// the worker die of it. The coordinator hears nothing more and
			// evicts it a TTL later.
			return fmt.Errorf("%w (rpc %d)", ErrSevered, f.Seq)
		}
		data, status, err := c.post(ctx, path, body)
		if f.Dup && err == nil {
			// Duplicated request: the first send was processed; keep the
			// second response. The server must have folded exactly once.
			data, status, err = c.post(ctx, path, body)
		}
		if f.Delay > 0 {
			if serr := c.sleep(ctx, f.Delay); serr != nil {
				return errors.Join(serr, last)
			}
		}
		if err != nil {
			last = err
			continue
		}
		switch {
		case status == http.StatusGone:
			return ErrEvicted
		case status >= 400 && status < 500:
			return fmt.Errorf("dist: %s: coordinator refused: %s", path, bytes.TrimSpace(data))
		case status != http.StatusOK:
			last = fmt.Errorf("dist: %s: status %d: %s", path, status, bytes.TrimSpace(data))
			continue
		}
		if f.Drop {
			// The server processed the request but the response is lost in
			// flight; to the caller this is indistinguishable from a failed
			// call, so it retries — creating the duplicate the server drops.
			last = fmt.Errorf("dist: %s: response lost (injected drop, rpc %d)", path, f.Seq)
			continue
		}
		if f.Corrupt && len(data) > 0 {
			data[f.CorruptByte%len(data)] ^= 1
		}
		if err := Unseal(data, reply); err != nil {
			last = fmt.Errorf("dist: %s: %w", path, err)
			continue
		}
		return nil
	}
	return fmt.Errorf("dist: %s: giving up after %d attempts: %w", path, maxAttempts, last)
}

// post performs one HTTP POST, returning the raw response body and status.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := readBody(http.MaxBytesReader(nil, resp.Body, maxBody), resp.ContentLength)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

// maxBody bounds a request or response body; nothing past it is buffered.
// maxPresize bounds what a declared length alone can make a reader allocate
// before the bytes have come: an exchange is a few KB.
const (
	maxBody    = 64 << 20
	maxPresize = 1 << 20
)

// readBody reads a body that is already limited to maxBody, into a buffer
// presized from the declared length when that is a sane one.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	var buf bytes.Buffer
	if contentLength > 0 {
		buf.Grow(int(min(contentLength, maxPresize)) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// jittered adds up to 50% random jitter so retrying workers desynchronize
// instead of thundering back in lockstep.
func (c *Client) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + j
}

// sleep is a context-aware time.Sleep.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
