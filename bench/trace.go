package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// during the pass and are flushed to bench/out/trace-<workload>.jsonl when
// it ends. Spans of one work unit share Unit; Parent is the span that
// caused this one (0 = the pass root has no parent).
//
// Measured spans wrap a call the bench made. Synthetic spans carry a
// duration the program itself returned (ProgramCase.GenTime/ModelTime,
// executor.Metrics deltas): the bench cannot see inside the call, so they
// are laid end to end from their parent's start. Self time is always a
// span's duration minus the sum of its children's.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Unit      int32  `json:"unit"` // ordinal of the work unit; -1 outside units
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"` // since the pass began
	EndNS     int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a measured span and returns its ID (IDs start at 1).
func (t *tracer) begin(name string, parent int32, unit int) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: int32(unit), Name: name,
		StartNS: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return s.dur()
}

// synthetic appends child spans of parent for durations the program
// reported, laid end to end from the parent's start, and returns their sum.
func (t *tracer) synthetic(parent int32, unit int, parts []namedDur) time.Duration {
	at := t.spans[parent-1].StartNS
	var total time.Duration
	for _, p := range parts {
		id := int32(len(t.spans) + 1)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: int32(unit), Name: p.name,
			StartNS: at, EndNS: at + int64(p.d), Synthetic: true})
		at += int64(p.d)
		total += p.d
	}
	return total
}

type namedDur struct {
	name string
	d    time.Duration
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
