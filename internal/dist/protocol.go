// Package dist shards a fuzzing campaign's work units across remote
// workers over HTTP, tolerating every failure a network adds —
// crashed workers, lost responses, duplicated requests, corrupted bytes,
// a killed coordinator — while producing final results bit-identical to a
// single-process run at the same seed.
//
// The engine's determinism contract is what makes that cheap: a work unit
// is addressed by (instance, program) coordinates and its result depends
// only on those coordinates plus the campaign seed, so the coordinator
// never ships programs or inputs — a lease is two integers, a duplicate
// submission carries the identical payload as the original, and any worker
// can re-run any unit after any failure with no coordination beyond "who
// runs what".
//
// # Topology
//
// One coordinator owns the campaign state (an engine.DistCampaign) and
// serves POST endpoints; N workers each own a persistent executor (an
// engine.UnitRunner) and pull work:
//
//	join      → validate config fingerprint + frontend, get a worker ID
//	exchange  → deliver a finished batch's results (each folded exactly
//	            once), renew every lease the sender holds to now+TTL, and
//	            lease a grant of about TTL/20 of work; learn of
//	            eviction (410) or completion
//	lease, submit → exchange's single-step forms (no results / one result
//	            and no units), for a client that replays a campaign call
//	            by call; no worker uses them
//
// A worker's heartbeat is an exchange too: every TTL/3 it sends an empty,
// unnumbered one (no results, Want 0), which renews its leases while a long
// unit runs.
//
// A worker keeps one exchange in flight while it simulates: batch n's
// results travel, and the batch after next is leased, while batch n+1 runs,
// so it holds at most two batches of leases and waits for the network only
// when the coordinator is slower than a whole batch. Exchanges carry a
// per-worker sequence number: a retransmission (the reply was lost) is
// answered with the same grant again, never a second one. Under
// stop-on-first a violation at (i, p) makes every unit (i, q > p) dead
// work: its worker skips those it holds, and the coordinator retires their
// leases when the violation folds.
//
// Workers that fall silent for a TTL are evicted and their leased units
// reassigned, each alone; a unit that lost a worker four times is
// quarantined unrun, as a panicking unit is in a single-process run. The
// coordinator runs no unit itself: if the whole fleet dies the campaign
// stays open until a worker joins. The coordinator checkpoints through
// internal/checkpoint, so killing it and restarting with Resume continues
// from the persisted units — the same file format plain `amulet -resume`
// reads.
//
// # Wire integrity
//
// Every request and response body is one frame: the CRC-32C (Castagnoli)
// of the body, as 8 little-endian bytes, then the body. A mismatch is
// treated as a failed call (the client retries, the server rejects).
//
// Each message type has one body encoding. The two that carry results —
// ExchangeRequest and SubmitRequest — are binary (package codec's
// varints), and each result in them is a checkpoint unit record: the
// worker encodes a result once, the coordinator checks it, decodes it once
// to fold it, and appends the worker's bytes to its checkpoint log
// unchanged. Every other message is a few dozen bytes of JSON. Each unit
// result additionally carries the CRC-32C of its encoded result, so a
// worker whose payloads disagree with their own digests accumulates
// strikes and is banned.
//
// The endpoints are versioned by the protocol: a peer that speaks an older
// one is refused at join (404), not on its first result or heartbeat.
// (/v1/ had JSON results, /v2/ a heartbeat message of its own.)
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/codec"
)

// Endpoint paths served by the coordinator.
const (
	PathJoin     = "/v3/join"
	PathExchange = "/v3/exchange"
	PathLease    = "/v3/lease"
	PathSubmit   = "/v3/submit"
)

// ErrBadDigest reports a frame or result payload whose bytes disagree with
// their digest.
var ErrBadDigest = errors.New("dist: payload digest mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is the wire digest: CRC-32C over the exact payload bytes — the
// checkpoint log's checksum, hardware-accelerated where the CPU has it.
func Digest(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

// frameHeader is the size of the digest a frame opens with.
const frameHeader = 8

// binaryMessage is a message whose body is binary rather than JSON.
type binaryMessage interface {
	maxBodyLen() int // bounds the body's length, so Seal allocates once
	appendBody(b []byte) []byte
	decodeBody(body []byte) error
}

// Seal encodes v into a frame: the body's Digest, then the body.
func Seal(v any) ([]byte, error) {
	m, ok := v.(binaryMessage)
	if !ok {
		body, err := marshalSmall(v)
		if err != nil {
			return nil, fmt.Errorf("dist: encode: %w", err)
		}
		return frame(body), nil
	}
	out := m.appendBody(make([]byte, frameHeader, frameHeader+m.maxBodyLen()))
	binary.LittleEndian.PutUint64(out, Digest(out[frameHeader:]))
	return out, nil
}

// frame puts body's digest in front of it.
func frame(body []byte) []byte {
	out := make([]byte, frameHeader+len(body))
	binary.LittleEndian.PutUint64(out, Digest(body))
	copy(out[frameHeader:], body)
	return out
}

// Unseal verifies data's frame digest and decodes the body into v, so
// corruption anywhere in flight surfaces as a failed call instead of a
// silently wrong payload. A decoded result's bytes alias data.
func Unseal(data []byte, v any) error {
	if len(data) < frameHeader {
		return fmt.Errorf("dist: decode frame: %d bytes, shorter than its digest", len(data))
	}
	body := data[frameHeader:]
	if Digest(body) != binary.LittleEndian.Uint64(data) {
		return ErrBadDigest
	}
	var err error
	if m, ok := v.(binaryMessage); ok {
		err = m.decodeBody(body)
	} else {
		err = unmarshalSmall(body, v)
	}
	if err != nil {
		return fmt.Errorf("dist: decode body: %w", err)
	}
	return nil
}

// UnitResult is one unit's result on the wire. Result is the encoded
// checkpoint.ResultRec (EncodeResult) and ResultDigest its Digest. On the
// wire a result is its digest, then the unit's checkpoint record —
// checkpoint.AppendUnitHeader of Inst, Prog and Draws, then Result — behind
// its length:
//
//	result := uvarint ResultDigest | uvarint length | varint Inst | varint Prog | uvarint Draws | Result
type UnitResult struct {
	Inst         int
	Prog         int
	Draws        uint64
	ResultDigest uint64
	Result       []byte
}

// Result encoding bounds: the shortest (digest, length and the three header
// varints of an empty record) and the most a result adds to its bytes.
const (
	minResultBytes  = 5
	maxResultFields = 5 * binary.MaxVarintLen64
)

func appendResult(b []byte, inst, prog int, draws, digest uint64, result []byte) []byte {
	b = codec.AppendUvarint(b, digest)
	b, start := codec.BeginSized(b)
	b = append(checkpoint.AppendUnitHeader(b, inst, prog, draws), result...)
	return codec.EndSized(b, start)
}

func readResult(r *codec.Reader) (UnitResult, error) {
	digest, rec := r.Uvarint(), r.Bytes()
	if err := r.Err(); err != nil {
		return UnitResult{}, err
	}
	inst, prog, draws, result, err := checkpoint.SplitUnit(rec)
	return UnitResult{Inst: inst, Prog: prog, Draws: draws, ResultDigest: digest, Result: result}, err
}

// ExchangeRequest delivers a batch of results and asks for up to Want more
// units (0 = none). The coordinator sizes each grant in time — about a
// twentieth of its lease TTL at the unit time the worker's last results
// report, one unit before there are any — so Want only caps it: a worker
// asks for GrantAll. Seq numbers the worker's exchanges from 1: a
// retransmission repeats its Seq and is answered with the grant the first
// copy got, so a lost reply neither strands a grant nor earns a second one.
// 0 is an unnumbered call, always answered afresh; a heartbeat is one with
// no results and Want 0. Retries is the worker transport's cumulative
// retry count, reported so the coordinator's robustness counters cover
// client-side recovery too. Its body is binary:
//
//	body := varint WorkerID | uvarint Seq | varint Want | varint Retries | uvarint count | result*
type ExchangeRequest struct {
	WorkerID int64
	Seq      uint64
	Results  []UnitResult
	Want     int
	Retries  int
}

// GrantAll is the Want of a worker that takes whatever grant the
// coordinator sizes for it.
const GrantAll = math.MaxInt32

func (req *ExchangeRequest) maxBodyLen() int {
	n := 5 * binary.MaxVarintLen64
	for i := range req.Results {
		n += maxResultFields + len(req.Results[i].Result)
	}
	return n
}

func (req *ExchangeRequest) appendBody(b []byte) []byte {
	b = codec.AppendVarint(b, req.WorkerID)
	b = codec.AppendUvarint(b, req.Seq)
	b = codec.AppendInt(b, req.Want)
	b = codec.AppendInt(b, req.Retries)
	b = codec.AppendUvarint(b, uint64(len(req.Results)))
	for i := range req.Results {
		r := &req.Results[i]
		b = appendResult(b, r.Inst, r.Prog, r.Draws, r.ResultDigest, r.Result)
	}
	return b
}

func (req *ExchangeRequest) decodeBody(body []byte) error {
	r := codec.NewReader(body)
	*req = ExchangeRequest{WorkerID: r.Varint(), Seq: r.Uvarint(), Want: r.Int(), Retries: r.Int()}
	if n := r.Count(minResultBytes); n > 0 {
		req.Results = make([]UnitResult, n)
	}
	for i := range req.Results {
		var err error
		if req.Results[i], err = readResult(&r); err != nil {
			return err
		}
	}
	return r.Done()
}

// SubmitRequest is an exchange of one result that asks for no units; the
// fields are UnitResult's and ExchangeRequest's, and so is the body:
//
//	body := varint WorkerID | varint Retries | result
type SubmitRequest struct {
	WorkerID     int64
	Inst         int
	Prog         int
	Draws        uint64
	ResultDigest uint64
	Result       []byte
	Retries      int
}

func (req *SubmitRequest) maxBodyLen() int {
	return 2*binary.MaxVarintLen64 + maxResultFields + len(req.Result)
}

func (req *SubmitRequest) appendBody(b []byte) []byte {
	b = codec.AppendVarint(b, req.WorkerID)
	b = codec.AppendInt(b, req.Retries)
	return appendResult(b, req.Inst, req.Prog, req.Draws, req.ResultDigest, req.Result)
}

func (req *SubmitRequest) decodeBody(body []byte) error {
	r := codec.NewReader(body)
	id, retries := r.Varint(), r.Int()
	res, err := readResult(&r)
	if err != nil {
		return err
	}
	*req = SubmitRequest{WorkerID: id, Inst: res.Inst, Prog: res.Prog, Draws: res.Draws,
		ResultDigest: res.ResultDigest, Result: res.Result, Retries: retries}
	return r.Done()
}

// resultCap is the buffer a result is encoded into: one without violations
// takes about 70 bytes.
const resultCap = 128

// EncodeResult encodes a unit result for the wire, once: the same bytes are
// its coordinator's checkpoint record.
func EncodeResult(rec checkpoint.ResultRec) (raw []byte, digest uint64, err error) {
	b, err := rec.AppendBinary(make([]byte, 0, resultCap))
	if err != nil {
		return nil, 0, fmt.Errorf("dist: encode result: %w", err)
	}
	return b, Digest(b), nil
}
