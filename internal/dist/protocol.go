// Package dist shards a fuzzing campaign's work units across remote
// workers over HTTP/JSON, tolerating every failure a network adds —
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
//	            once) and lease up to K more units, deadline now+TTL
//	heartbeat → renew the lease deadlines; learn of eviction/completion
//	lease, submit → exchange's single-step forms (no results / one result
//	            and no units), for a client that replays a campaign call
//	            by call; no worker uses them
//
// A worker keeps one exchange in flight while it simulates: batch n's
// results travel, and the batch after next is leased, while batch n+1 runs,
// so it holds at most two batches of leases and waits for the network only
// when the coordinator is slower than a whole batch. Exchanges carry a
// per-worker sequence number: a retransmission (the reply was lost) is
// answered with the same grant again, never a second one.
//
// Workers that stop heartbeating are evicted and their leased units
// reassigned; a unit reassigned too many times is degraded to guarded
// local execution on the coordinator (the quarantine path, converging to
// single-process semantics); if the whole fleet dies the coordinator
// finishes the campaign locally. The coordinator checkpoints through
// internal/checkpoint, so killing it and restarting with Resume continues
// from the persisted units — the same file format plain `amulet -resume`
// reads.
//
// # Wire integrity
//
// Every request and response body is one frame: the CRC-32C (Castagnoli)
// of the JSON body, as 8 little-endian bytes, then the body. A mismatch is
// treated as a failed call (the client retries, the server rejects).
// Each unit result additionally carries the CRC-32C of its own serialized
// bytes, so a worker whose payloads disagree with their own digests
// accumulates strikes and is banned.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
)

// Endpoint paths served by the coordinator.
const (
	PathJoin      = "/v1/join"
	PathExchange  = "/v1/exchange"
	PathHeartbeat = "/v1/heartbeat"
	PathLease     = "/v1/lease"
	PathSubmit    = "/v1/submit"
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

// Seal marshals v into a frame: the body's Digest, then the body.
func Seal(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("dist: encode: %w", err)
	}
	return frame(body), nil
}

// frame puts body's digest in front of it.
func frame(body []byte) []byte {
	out := make([]byte, frameHeader+len(body))
	binary.LittleEndian.PutUint64(out, Digest(body))
	copy(out[frameHeader:], body)
	return out
}

// Unseal verifies data's frame digest and unmarshals the body into v, so
// corruption anywhere in flight surfaces as a failed call instead of a
// silently wrong payload.
func Unseal(data []byte, v any) error {
	if len(data) < frameHeader {
		return fmt.Errorf("dist: decode frame: %d bytes, shorter than its digest", len(data))
	}
	body := data[frameHeader:]
	if Digest(body) != binary.LittleEndian.Uint64(data) {
		return ErrBadDigest
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dist: decode body: %w", err)
	}
	return nil
}

// Unit names one work unit on the wire.
type Unit struct {
	Inst int `json:"inst"`
	Prog int `json:"prog"`
}

// JoinRequest announces a worker. The coordinator refuses a worker whose
// campaign configuration fingerprint, frontend or shape disagrees with its
// own — a mismatched worker would fold structurally wrong results.
type JoinRequest struct {
	Worker    string `json:"worker"`
	ConfigFP  uint64 `json:"config_fp"`
	Frontend  string `json:"frontend"`
	Instances int    `json:"instances"`
	Programs  int    `json:"programs"`
}

// JoinReply assigns the worker its ID and the coordinator's lease terms.
type JoinReply struct {
	WorkerID   int64 `json:"worker_id"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	LeaseUnits int   `json:"lease_units"`
}

// UnitResult is one unit's result on the wire. Result is the raw JSON of
// the checkpoint.ResultRec and ResultDigest its Digest — digesting the
// exact bytes (rather than re-marshalling server-side) makes verification
// independent of encoder details.
type UnitResult struct {
	Inst         int             `json:"inst"`
	Prog         int             `json:"prog"`
	Draws        uint64          `json:"draws"`
	ResultDigest uint64          `json:"result_digest"`
	Result       json.RawMessage `json:"result"`
}

// ExchangeRequest delivers a batch of results and asks for up to Want more
// units (0 = none; the coordinator grants at most its LeaseUnits). Seq
// numbers the worker's exchanges from 1: a retransmission repeats its Seq
// and is answered with the grant the first copy got, so a lost reply
// neither strands a grant nor earns a second one. 0 is an unnumbered call,
// always answered afresh. Retries is the worker transport's cumulative
// retry count, reported so the coordinator's robustness counters cover
// client-side recovery too.
type ExchangeRequest struct {
	WorkerID int64        `json:"worker_id"`
	Seq      uint64       `json:"seq"`
	Results  []UnitResult `json:"results,omitempty"`
	Want     int          `json:"want"`
	Retries  int          `json:"retries"`
}

// ExchangeReply grants units and acknowledges the request's results: all
// of them are folded, Folded of them by this call (the rest were already
// done — duplicates, harmless, dropped). Done means the campaign has
// nothing left to schedule; a worker granted no units should exit.
type ExchangeReply struct {
	Units  []Unit `json:"units,omitempty"`
	Folded int    `json:"folded"`
	Done   bool   `json:"done"`
}

// LeaseRequest is an exchange that delivers nothing: it asks for up to Max
// units (0 = the coordinator's default).
type LeaseRequest struct {
	WorkerID int64 `json:"worker_id"`
	Max      int   `json:"max"`
}

// LeaseReply grants units. Done as in ExchangeReply.
type LeaseReply struct {
	Units []Unit `json:"units,omitempty"`
	Done  bool   `json:"done"`
}

// HeartbeatRequest renews the worker's lease deadlines. Retries as in
// ExchangeRequest.
type HeartbeatRequest struct {
	WorkerID int64 `json:"worker_id"`
	Retries  int   `json:"retries"`
}

// HeartbeatReply: OK=false tells the worker it has been evicted (it should
// rejoin); Done tells it the campaign is complete.
type HeartbeatReply struct {
	OK   bool `json:"ok"`
	Done bool `json:"done"`
}

// SubmitRequest is an exchange of one result that asks for no units; the
// fields are UnitResult's and ExchangeRequest's.
type SubmitRequest struct {
	WorkerID     int64           `json:"worker_id"`
	Inst         int             `json:"inst"`
	Prog         int             `json:"prog"`
	Draws        uint64          `json:"draws"`
	ResultDigest uint64          `json:"result_digest"`
	Result       json.RawMessage `json:"result"`
	Retries      int             `json:"retries"`
}

// SubmitReply: Folded=false means the unit was already done (a duplicate —
// harmless, dropped). Done as in ExchangeReply.
type SubmitReply struct {
	Folded bool `json:"folded"`
	Done   bool `json:"done"`
}

// EncodeResult serializes a unit result for the wire.
func EncodeResult(rec checkpoint.ResultRec) (raw json.RawMessage, digest uint64, err error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: encode result: %w", err)
	}
	return b, Digest(b), nil
}

// DecodeResult verifies a SubmitRequest's result payload against its
// digest and deserializes it. A mismatch is ErrBadDigest — the strike that
// gets a worker banned.
func DecodeResult(req *SubmitRequest) (checkpoint.ResultRec, error) {
	return decodeResult(req.Result, req.ResultDigest)
}

func decodeResult(raw json.RawMessage, digest uint64) (checkpoint.ResultRec, error) {
	if Digest(raw) != digest {
		return checkpoint.ResultRec{}, ErrBadDigest
	}
	var rec checkpoint.ResultRec
	if err := json.Unmarshal(raw, &rec); err != nil {
		return checkpoint.ResultRec{}, fmt.Errorf("dist: decode result: %w", err)
	}
	return rec, nil
}
