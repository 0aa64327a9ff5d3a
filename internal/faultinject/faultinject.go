// Package faultinject is a deterministic fault-injection harness for the
// campaign durability layer. An Injector holds a set of armed injection
// points addressed in the same coordinate system the determinism contract
// already uses — a work unit is (instance, program), an atomic file write is
// a fixed sequence of numbered steps, a checkpoint-log append is a sequence
// number plus a byte count, a checkpoint payload is a byte offset — so every
// injected fault is exactly reproducible: arming the
// same point against the same seed produces the same failure at the same
// place, no matter how the engine schedules work.
//
// Production code paths carry at most a nil check per work unit; the
// injector exists for the crash/resume, quarantine and corruption tests
// (and for CI's fault-injection job), never for normal operation.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind classifies an injection point.
type Kind uint8

// Injection point kinds.
const (
	// KindPanicInUnit panics at the start of work unit (A=instance,
	// B=program), modelling a simulator bug that kills a worker.
	KindPanicInUnit Kind = iota + 1
	// KindHangInUnit blocks work unit (A=instance, B=program) for
	// HangDuration, modelling a wedged unit the watchdog must degrade to a
	// counted timeout.
	KindHangInUnit
	// KindCrashAtStep makes an atomic file write (checkpoint.Save, quarantine
	// bundles) die between write steps: the write performs every step before
	// step A and then returns ErrInjectedCrash, leaving the filesystem
	// exactly as a process crash at that point would.
	KindCrashAtStep
	// KindFlipByte flips bit B of file byte A after checkpoint.Save has
	// computed the record CRCs, so the file lands on disk corrupted the way
	// a torn sector or bit rot would corrupt it.
	KindFlipByte
	// KindDropRPC performs RPC A (the injector-local call sequence number,
	// first call = 1) but discards its response, modelling a response lost
	// in flight *after* the server processed the request — the caller
	// retries, and a retried mutation is exactly how duplicate submissions
	// reach a coordinator.
	KindDropRPC
	// KindDelayRPC delays RPC A's response by RPCDelay, modelling a slow
	// link or a GC-paused peer; lease deadlines and heartbeat budgets must
	// absorb it.
	KindDelayRPC
	// KindDupRPC sends RPC A twice and keeps the second response, modelling
	// a duplicated request (retransmission); the server must fold the
	// mutation exactly once.
	KindDupRPC
	// KindCorruptRPC flips the low bit of byte B of RPC A's response body
	// after receipt, modelling in-flight corruption the payload digest must
	// catch; the caller treats it as a failed call and retries.
	KindCorruptRPC
	// KindSeverRPC is the Point recorded when an ArmSever rule fires: the
	// network is gone from that call on, every RPC fails without being
	// sent, and the peer sees the silence as a lapsed heartbeat.
	KindSeverRPC
	// KindCrashInAppend kills the process in the middle of checkpoint-log
	// append A (the injector-local append sequence number; the header record
	// a fresh log opens with is append 1): only the first B bytes of the
	// record reach the file — B at or past the record's length is "written
	// whole, died before the fsync" — the append returns ErrInjectedCrash,
	// and the log never touches the file again.
	KindCrashInAppend
	// KindFailAppend makes checkpoint-log append A fail after B bytes — a
	// short write, as a full disk gives; B=0 fails outright, as a directory
	// gone read-only does. The append returns ErrInjectedWriteFailure; the
	// process lives on and later appends proceed.
	KindFailAppend
)

func (k Kind) String() string {
	switch k {
	case KindPanicInUnit:
		return "panic-in-unit"
	case KindHangInUnit:
		return "hang-in-unit"
	case KindCrashAtStep:
		return "crash-at-step"
	case KindFlipByte:
		return "flip-byte"
	case KindDropRPC:
		return "drop-rpc"
	case KindDelayRPC:
		return "delay-rpc"
	case KindDupRPC:
		return "dup-rpc"
	case KindCorruptRPC:
		return "corrupt-rpc"
	case KindSeverRPC:
		return "sever-rpc"
	case KindCrashInAppend:
		return "crash-in-append"
	case KindFailAppend:
		return "fail-append"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Any is the wildcard coordinate: a point armed with A=Any (and/or B=Any)
// fires on the first matching event regardless of that coordinate. The
// distributed worker tests use it to panic a worker on whatever unit its
// lease happens to hand it — which unit that is depends on scheduling, but
// the determinism contract makes the campaign outcome identical either way.
const Any = -1

// Point is one armed injection point.
type Point struct {
	Kind Kind
	A, B int
}

// ErrInjectedCrash is returned by a checkpoint write that was killed
// between steps by KindCrashAtStep, or mid-append by KindCrashInAppend.
var ErrInjectedCrash = errors.New("faultinject: injected crash")

// ErrInjectedWriteFailure is the write error a KindFailAppend point makes a
// checkpoint-log append fail with.
var ErrInjectedWriteFailure = errors.New("faultinject: injected write failure")

// InjectedPanic is the value a KindPanicInUnit point panics with; the
// quarantine round-trip test matches it to prove a repro bundle replays
// the original fault.
type InjectedPanic struct {
	Inst, Prog int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic in unit (%d,%d)", p.Inst, p.Prog)
}

// Injector is a set of armed injection points. The zero value is unusable;
// build one with New. A nil *Injector is inert: every hook on it is a
// cheap no-op, which is what production configs pass.
type Injector struct {
	mu    sync.Mutex
	armed map[Point]bool // armed points that have not fired yet
	fired []Point

	// HangDuration is how long a KindHangInUnit point blocks (default 2s —
	// long enough for any sane watchdog budget to expire first).
	HangDuration time.Duration
	// RPCDelay is how long a KindDelayRPC point stalls a response (default
	// 100ms — visible to tests, well inside any sane lease deadline).
	RPCDelay time.Duration

	// cancelAfter, when positive, counts UnitStart calls down and invokes
	// cancel when it reaches zero — the deterministic "kill the campaign
	// after N units have started" used by the kill-and-resume sweep.
	cancelAfter int
	cancel      func()

	// RPC-transport state: rpcSeq counts RPC() calls; severAfter > 0 makes
	// every call past that sequence number fail unsent (the network is
	// gone); dropEvery > 0 drops every dropEvery-th response — the
	// "lossy link" rule the CI smoke arms on a whole worker.
	rpcSeq     int
	severAfter int
	dropEvery  int

	// appendSeq counts Append() calls — the A coordinate of the log-append
	// faults — and appendBytes the bytes those appends were asked to write.
	appendSeq   int
	appendBytes int64
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{
		armed:        map[Point]bool{},
		HangDuration: 2 * time.Second,
		RPCDelay:     100 * time.Millisecond,
	}
}

// Arm arms point (kind, a, b) to fire exactly once.
func (i *Injector) Arm(kind Kind, a, b int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.armed[Point{kind, a, b}] = true
}

// ArmCancel makes the injector call cancel once afterUnits work units have
// started. Which units started first is schedule-dependent, but the
// determinism contract makes that irrelevant: the cancelled campaign's
// checkpoint resumes to bit-identical final results either way.
func (i *Injector) ArmCancel(afterUnits int, cancel func()) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cancelAfter = afterUnits
	i.cancel = cancel
}

// ArmSever severs the injector's RPC transport after afterRPCs calls: every
// later call fails without being sent, exactly as if the worker's network
// cable were pulled mid-campaign. The peer observes lapsed heartbeats and
// must evict the worker and reassign its leased units.
func (i *Injector) ArmSever(afterRPCs int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.severAfter = afterRPCs
}

// ArmDropEvery drops every n-th RPC response on the injector's transport —
// a deterministically lossy link. The caller's retry/backoff layer must
// absorb it; mutating calls that were processed before the response dropped
// surface as duplicate submissions the server folds exactly once.
func (i *Injector) ArmDropEvery(n int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropEvery = n
}

// Fired returns the points that have fired, in fire order.
func (i *Injector) Fired() []Point {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Point(nil), i.fired...)
}

// fire disarms the point and records it if it was armed.
func (i *Injector) fire(p Point) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.armed[p] {
		return false
	}
	delete(i.armed, p)
	i.fired = append(i.fired, p)
	return true
}

// fireAt fires an armed (kind, a, ·) point, whatever its B
// coordinate, and returns that B — for kinds whose B is a parameter of the
// fault rather than part of its address.
func (i *Injector) fireAt(kind Kind, a int) (b int, ok bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for p := range i.armed {
		if p.Kind == kind && p.A == a {
			delete(i.armed, p)
			i.fired = append(i.fired, p)
			return p.B, true
		}
	}
	return 0, false
}

// UnitStart is the engine's per-unit hook: it panics when a
// KindPanicInUnit point is armed for (inst, prog), blocks for HangDuration
// when a KindHangInUnit point is, and drives ArmCancel's countdown.
func (i *Injector) UnitStart(inst, prog int) {
	if i == nil {
		return
	}
	i.mu.Lock()
	if i.cancelAfter > 0 {
		i.cancelAfter--
		if i.cancelAfter == 0 && i.cancel != nil {
			cancel := i.cancel
			i.cancel = nil
			i.mu.Unlock()
			cancel()
			i.mu.Lock()
		}
	}
	i.mu.Unlock()
	if i.fire(Point{KindPanicInUnit, inst, prog}) || i.fire(Point{KindPanicInUnit, Any, Any}) {
		panic(InjectedPanic{Inst: inst, Prog: prog})
	}
	if i.fire(Point{KindHangInUnit, inst, prog}) || i.fire(Point{KindHangInUnit, Any, Any}) {
		time.Sleep(i.HangDuration)
	}
}

// RPCFault is the verdict of one RPC() call: what the armed network faults
// do to this call. The zero value (plus Corrupt=false) is a clean call.
type RPCFault struct {
	// Seq is this call's sequence number on the injector's transport
	// (first call = 1); diagnostics only.
	Seq int
	// Severed: the network is gone — fail without sending the request.
	Severed bool
	// Drop: perform the RPC, then discard the response and report failure.
	// The server side has processed the request; the caller's retry makes
	// the mutation arrive twice.
	Drop bool
	// Dup: send the request twice and keep the second response.
	Dup bool
	// Delay: stall this long after the response arrives.
	Delay time.Duration
	// Corrupt: flip the low bit of response byte CorruptByte (clamped into
	// the body by the transport) after receipt.
	Corrupt     bool
	CorruptByte int
}

// Clean reports whether the call proceeds unmolested.
func (f RPCFault) Clean() bool {
	return !f.Severed && !f.Drop && !f.Dup && !f.Corrupt && f.Delay == 0
}

// RPC is the network transport's per-call hook: it advances the injector's
// RPC sequence number and returns the faults armed for this call. A nil
// injector returns the clean verdict without any bookkeeping — production
// transports pay one nil check per call.
func (i *Injector) RPC() RPCFault {
	if i == nil {
		return RPCFault{}
	}
	i.mu.Lock()
	i.rpcSeq++
	seq := i.rpcSeq
	severed := i.severAfter > 0 && seq > i.severAfter
	dropRule := i.dropEvery > 0 && seq%i.dropEvery == 0
	delay := i.RPCDelay
	i.mu.Unlock()

	f := RPCFault{Seq: seq}
	if severed {
		i.record(Point{KindSeverRPC, seq, 0})
		f.Severed = true
		return f
	}
	if dropRule {
		i.record(Point{KindDropRPC, seq, 0})
		f.Drop = true
	}
	if i.fire(Point{KindDropRPC, seq, 0}) {
		f.Drop = true
	}
	if i.fire(Point{KindDelayRPC, seq, 0}) {
		f.Delay = delay
	}
	if i.fire(Point{KindDupRPC, seq, 0}) {
		f.Dup = true
	}
	f.CorruptByte, f.Corrupt = i.fireAt(KindCorruptRPC, seq)
	return f
}

// RPCs returns how many RPC attempts the injector's transport has made —
// what "exchanges per unit" is pinned with.
func (i *Injector) RPCs() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rpcSeq
}

// record appends a fired point for rule-based faults (sever, drop-every)
// that have no armed map entry to consume.
func (i *Injector) record(p Point) {
	i.mu.Lock()
	i.fired = append(i.fired, p)
	i.mu.Unlock()
}

// CrashAt is the checkpoint writer's between-steps hook: it reports
// whether an armed KindCrashAtStep point says the process dies before
// executing step. The writer returns ErrInjectedCrash without running the
// step (or any later one).
func (i *Injector) CrashAt(step int) bool {
	if i == nil {
		return false
	}
	return i.fire(Point{KindCrashAtStep, step, 0})
}

// AppendFault is the verdict of one Append() call: what the armed faults do
// to this checkpoint-log append. The zero value is a clean append.
type AppendFault struct {
	// Crash: the process dies mid-append. Only the first Keep bytes of the
	// record reach the file; the log returns ErrInjectedCrash and never
	// touches the file again, leaving it exactly as the kill would.
	Crash bool
	// Fail: the write fails after Keep bytes with ErrInjectedWriteFailure;
	// the process lives on.
	Fail bool
	Keep int
}

// Append is the checkpoint log's per-append hook, called with the size of
// the record about to be written: it advances the injector's append
// sequence number (first append = 1) and returns the fault armed for this
// append. A nil injector returns the clean verdict.
func (i *Injector) Append(size int) AppendFault {
	if i == nil {
		return AppendFault{}
	}
	i.mu.Lock()
	i.appendSeq++
	i.appendBytes += int64(size)
	seq := i.appendSeq
	i.mu.Unlock()
	if keep, ok := i.fireAt(KindCrashInAppend, seq); ok {
		return AppendFault{Crash: true, Keep: keep}
	}
	if keep, ok := i.fireAt(KindFailAppend, seq); ok {
		return AppendFault{Fail: true, Keep: keep}
	}
	return AppendFault{}
}

// Appended returns how many log appends the injector has seen and the bytes
// they were asked to write in total — what "every record is written once"
// is measured with.
func (i *Injector) Appended() (appends int, bytes int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.appendSeq, i.appendBytes
}

// MutateBytes applies every armed KindFlipByte point to buf (offsets past
// the end are ignored, spent either way). checkpoint.Save calls it after
// computing the record CRCs, so the corruption is exactly what the CRC
// check must catch on load.
func (i *Injector) MutateBytes(buf []byte) {
	if i == nil {
		return
	}
	i.mu.Lock()
	var pts []Point
	for p := range i.armed {
		if p.Kind == KindFlipByte {
			pts = append(pts, p)
		}
	}
	i.mu.Unlock()
	for _, p := range pts {
		if i.fire(p) && p.A >= 0 && p.A < len(buf) {
			buf[p.A] ^= 1 << (uint(p.B) % 8)
		}
	}
}
