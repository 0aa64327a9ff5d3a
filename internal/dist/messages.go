package dist

import "encoding/json"

// The messages that carry no result: a few dozen bytes each, JSON bodies.

// marshalSmall and unmarshalSmall are the body encoding of every message
// that is not a binaryMessage.
func marshalSmall(v any) ([]byte, error) { return json.Marshal(v) }

func unmarshalSmall(body []byte, v any) error { return json.Unmarshal(body, v) }

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

// JoinReply assigns the worker its ID and the coordinator's lease TTL.
type JoinReply struct {
	WorkerID   int64 `json:"worker_id"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
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
// units (0 = GrantAll).
type LeaseRequest struct {
	WorkerID int64 `json:"worker_id"`
	Max      int   `json:"max"`
}

// LeaseReply grants units. Done as in ExchangeReply.
type LeaseReply struct {
	Units []Unit `json:"units,omitempty"`
	Done  bool   `json:"done"`
}

// SubmitReply: Folded=false means the unit was already done (a duplicate —
// harmless, dropped). Done as in ExchangeReply.
type SubmitReply struct {
	Folded bool `json:"folded"`
	Done   bool `json:"done"`
}
