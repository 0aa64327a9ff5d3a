package checkpoint

import (
	"bytes"
	"fmt"
	"time"

	"github.com/sith-lab/amulet-go/internal/codec"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/executor"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// The record payloads, in the primitives of package codec (varint: zig-zag
// varint; bytes: a length-prefixed string; [x]: a presence byte, then x):
//
//	unit      := varint Inst | varint Prog | uvarint RNGDraws | result
//	result    := varint TestCases, Programs, Elapsed, ValidationRuns,
//	             RejectedMutants, GenTime, ModelTime | metrics | coverage |
//	             uvarint count | violation*
//	metrics   := varint per executor.Metrics field, in declaration order
//	coverage  := uvarint words (0: none) | nonzero-word mask (a bit per word,
//	             LSB first) | the nonzero words (8 bytes LE each)
//	violation := bytes Defense | bytes Contract | bytes Frontend | [prog] Source |
//	             bytes Program | varint Sandbox.Pages | bytes InputA | bytes InputB |
//	             uvarint count | (kind byte | uvarint V)* | varint ProgramIndex |
//	             varint DetectedAt
//	prog      := bytes Frontend | bytes Data
//	header    := uvarint ConfigFP | varint Seed, Instances, Programs, Epochs |
//	             bytes Strategy | bytes Frontend
//	commit    := varint EpochsDone | uvarint count | ([prog] Src | varint NewBits |
//	             bool Violating)* | coverage
//	pending   := uvarint count | (varint Inst | varint Prog | [prog] GenSrc)*
//
// Program is isa.Program's binary form, the inputs isa.Input's (sparse:
// registers, fill, written words). A prog's Data — a violation's Source,
// a corpus entry, a pending unit's program — is its frontend's
// EncodeProgram form, stored raw and decoded (and validated) only when
// resume or analysis needs the program. For the toy frontend that is
// isa.Program's binary form again:
//
//	program := varint NumBlocks | uvarint count | inst*
//	inst    := op | dst | src1 | src2 | cond | size (a byte each) |
//	           bool UseImm | varint Imm | varint Target
//
// and for the wasm frontend (package isa/wasm) a generated instruction
// takes 5 bytes unless its immediate or target needs a longer varint:
//
//	program := varint NumBlocks | uvarint count | inst*
//	inst    := op | local | size (a byte each) | varint Imm | varint Target
//
// A unit record is the unit header followed by the result's bytes, so a
// result encoded once — by a worker, for the wire — is written to the log
// as is. Decoding refuses anything the encoder does not write; whatever
// decodes re-encodes to the same bytes.

// Minimum encoded sizes of list elements: what Reader.Count checks a count
// against before a list is allocated.
const (
	minViolationBytes = 3 + 1 + 1 + 1 + 2 + 1 + 2 // three strings, source, program, pages, inputs, trace, two varints
	minObsBytes       = 2
	minCorpusBytes    = 3
	minPendingBytes   = 3
)

// AppendUnitHeader appends what a unit record holds before its result: the
// unit's coordinates and draw count.
func AppendUnitHeader(b []byte, inst, prog int, draws uint64) []byte {
	b = codec.AppendInt(b, inst)
	b = codec.AppendInt(b, prog)
	return codec.AppendUvarint(b, draws)
}

// SplitUnit splits a unit record into the fields AppendUnitHeader wrote and
// the result's bytes behind them, which it does not decode.
func SplitUnit(payload []byte) (inst, prog int, draws uint64, result []byte, err error) {
	r := codec.NewReader(payload)
	inst, prog, draws = r.Int(), r.Int(), r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("checkpoint: unit: %w", err)
	}
	return inst, prog, draws, r.Next(r.Len()), nil
}

// AppendBinary implements encoding.BinaryAppender: the unit record's
// payload. GenSrc is not part of it — programs travel in pending records.
func (u *UnitRec) AppendBinary(b []byte) ([]byte, error) {
	return u.Result.AppendBinary(AppendUnitHeader(b, u.Inst, u.Prog, u.RNGDraws))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (u *UnitRec) UnmarshalBinary(data []byte) error {
	inst, prog, draws, result, err := SplitUnit(data)
	if err != nil {
		return err
	}
	*u = UnitRec{Inst: inst, Prog: prog, RNGDraws: draws}
	return u.Result.UnmarshalBinary(result)
}

// AppendBinary implements encoding.BinaryAppender. It fails only for a
// violation without its program or an input, which no fuzzer reports.
func (r *ResultRec) AppendBinary(b []byte) ([]byte, error) {
	for _, x := range [...]int64{int64(r.TestCases), int64(r.Programs), int64(r.Elapsed),
		int64(r.ValidationRuns), int64(r.RejectedMutants), int64(r.GenTime), int64(r.ModelTime)} {
		b = codec.AppendVarint(b, x)
	}
	b = appendMetrics(b, &r.Metrics)
	b = appendCoverage(b, r.Coverage)
	b = codec.AppendUvarint(b, uint64(len(r.Violations)))
	for i := range r.Violations {
		var err error
		if b, err = r.Violations[i].appendBinary(b); err != nil {
			return b, err
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. A result is read
// from bytes this process did not write — a checkpoint file, a worker's
// submission — and its violations are later replayed on a machine built for
// their Sandbox, so a violation whose program or inputs are missing,
// malformed or of another geometry is refused here rather than panicking at
// replay.
func (r *ResultRec) UnmarshalBinary(data []byte) error {
	rd := codec.NewReader(data)
	*r = ResultRec{
		TestCases: rd.Int(), Programs: rd.Int(), Elapsed: time.Duration(rd.Varint()),
		ValidationRuns: rd.Int(), RejectedMutants: rd.Int(),
		GenTime: time.Duration(rd.Varint()), ModelTime: time.Duration(rd.Varint()),
	}
	readMetrics(&rd, &r.Metrics)
	r.Coverage = readCoverage(&rd)
	if n := rd.Count(minViolationBytes); n > 0 {
		r.Violations = make([]ViolationRec, n)
	}
	for i := range r.Violations {
		if err := r.Violations[i].read(&rd); err != nil {
			*r = ResultRec{}
			return err
		}
	}
	if err := rd.Done(); err != nil {
		*r = ResultRec{}
		return fmt.Errorf("checkpoint: result: %w", err)
	}
	return nil
}

// ResultElapsed reads an encoded result's Elapsed without decoding the rest
// of it; it is 0 for bytes that do not begin like a result.
func ResultElapsed(result []byte) time.Duration {
	rd := codec.NewReader(result)
	rd.Varint() // TestCases
	rd.Varint() // Programs
	elapsed := time.Duration(rd.Varint())
	if rd.Err() != nil {
		return 0
	}
	return elapsed
}

// appendMetrics and readMetrics list executor.Metrics field by field;
// TestMetricsEncodeEveryField fails when a field is added without them.
func appendMetrics(b []byte, m *executor.Metrics) []byte {
	for _, x := range [...]int64{
		int64(m.Startup), int64(m.Prime), int64(m.Simulate), int64(m.TraceExtract), int64(m.Digest),
		int64(m.Starts), int64(m.BootRuns), int64(m.TestCases), int64(m.Truncations),
		int64(m.Quarantined), int64(m.TimedOut), int64(m.Retries), int64(m.Evictions),
		int64(m.Reassigned), int64(m.DuplicatesDropped), int64(m.DegradedLocal),
	} {
		b = codec.AppendVarint(b, x)
	}
	return b
}

func readMetrics(r *codec.Reader, m *executor.Metrics) {
	*m = executor.Metrics{
		Startup: time.Duration(r.Varint()), Prime: time.Duration(r.Varint()),
		Simulate: time.Duration(r.Varint()), TraceExtract: time.Duration(r.Varint()),
		Digest: time.Duration(r.Varint()), Starts: r.Int(), BootRuns: r.Int(), TestCases: r.Int(),
		Truncations: r.Int(), Quarantined: r.Int(), TimedOut: r.Int(), Retries: r.Int(),
		Evictions: r.Int(), Reassigned: r.Int(), DuplicatesDropped: r.Int(), DegradedLocal: r.Int(),
	}
}

func appendCoverage(b []byte, words []uint64) []byte {
	b = codec.AppendUvarint(b, uint64(len(words)))
	mask := len(b)
	b = append(b, make([]byte, (len(words)+7)/8)...)
	for i, w := range words {
		if w != 0 {
			b[mask+i/8] |= 1 << (i % 8)
			b = codec.AppendUint64(b, w)
		}
	}
	return b
}

func readCoverage(r *codec.Reader) []uint64 {
	n := r.Uvarint()
	if n > 8*uint64(r.Len()) { // a mask bit per word
		r.Fail("%d coverage words exceed the %d bytes that remain", n, r.Len())
	}
	mask := r.Next(int(n+7) / 8)
	if n == 0 || mask == nil {
		return nil
	}
	if n%8 != 0 && mask[len(mask)-1]>>(n%8) != 0 {
		r.Fail("coverage mask flags words past its %d", n)
		return nil
	}
	words := make([]uint64, n)
	for i := range words {
		if mask[i/8]&(1<<(i%8)) != 0 {
			if words[i] = r.Uint64(); words[i] == 0 {
				r.Fail("coverage word %d flagged but zero", i)
			}
		}
	}
	return words
}

func (v *ViolationRec) appendBinary(b []byte) ([]byte, error) {
	if v.Program == nil || len(v.InputA) == 0 || len(v.InputB) == 0 {
		return b, fmt.Errorf("checkpoint: encode: violation without its program and both inputs")
	}
	b = codec.AppendString(b, v.Defense)
	b = codec.AppendString(b, v.Contract)
	b = codec.AppendString(b, v.Frontend)
	b = appendProg(b, v.Source)
	var start int
	b, start = codec.BeginSized(b)
	b, _ = v.Program.AppendBinary(b)
	b = codec.EndSized(b, start)
	b = codec.AppendInt(b, v.Sandbox.Pages)
	b = codec.AppendBytes(b, v.InputA)
	b = codec.AppendBytes(b, v.InputB)
	b = codec.AppendUvarint(b, uint64(len(v.CTrace)))
	for _, o := range v.CTrace {
		b = codec.AppendUvarint(append(b, byte(o.Kind)), o.V)
	}
	b = codec.AppendInt(b, v.ProgramIndex)
	return codec.AppendVarint(b, int64(v.DetectedAt)), nil
}

// read decodes a violation. Its inputs are checked — well formed, of the
// record's sandbox — but kept in their binary form, copied into one
// exact-size buffer: a record outlives the file or request it was read
// from.
func (v *ViolationRec) read(r *codec.Reader) error {
	*v = ViolationRec{Defense: r.String(), Contract: r.String(), Frontend: r.String(), Source: readProg(r)}
	prog := r.Bytes()
	v.Sandbox = isa.Sandbox{Pages: r.Int()}
	inA, inB := r.Bytes(), r.Bytes()
	if n := r.Count(minObsBytes); n > 0 {
		v.CTrace = make(contract.Trace, n)
	}
	for i := range v.CTrace {
		v.CTrace[i] = contract.Obs{Kind: contract.ObsKind(r.Byte()), V: r.Uvarint()}
	}
	v.ProgramIndex, v.DetectedAt = r.Int(), time.Duration(r.Varint())
	if err := r.Err(); err != nil {
		return fmt.Errorf("checkpoint: violation: %w", err)
	}
	v.Program = &isa.Program{}
	if err := v.Program.UnmarshalBinary(prog); err != nil {
		return fmt.Errorf("checkpoint: violation: %w", err)
	}
	if len(inA) == 0 || len(inB) == 0 {
		return fmt.Errorf("checkpoint: violation record without both inputs")
	}
	for _, in := range [...][]byte{inA, inB} {
		sb, err := isa.CheckInput(in)
		if err != nil {
			return fmt.Errorf("checkpoint: violation: %w", err)
		}
		if sb != v.Sandbox {
			return fmt.Errorf("checkpoint: violation input has %d pages, its record's sandbox %d", sb.Pages, v.Sandbox.Pages)
		}
	}
	buf := make([]byte, len(inA)+len(inB))
	n := copy(buf, inA)
	copy(buf[n:], inB)
	v.InputA, v.InputB = buf[:n:n], buf[n:]
	return nil
}

func appendProg(b []byte, p *ProgRec) []byte {
	b = codec.AppendBool(b, p != nil)
	if p == nil {
		return b
	}
	return codec.AppendBytes(codec.AppendString(b, p.Frontend), p.Data)
}

// readProg reads an optional program record. Its bytes are copied: a
// record outlives the file or request it was read from.
func readProg(r *codec.Reader) *ProgRec {
	if !r.Bool() {
		return nil
	}
	p := &ProgRec{Frontend: r.String()}
	if data := r.Bytes(); len(data) > 0 {
		p.Data = bytes.Clone(data)
	}
	return p
}

func (h *headerRec) appendBinary(b []byte) []byte {
	b = codec.AppendUvarint(b, h.ConfigFP)
	b = codec.AppendVarint(b, h.Seed)
	b = codec.AppendInt(b, h.Instances)
	b = codec.AppendInt(b, h.Programs)
	b = codec.AppendInt(b, h.Epochs)
	b = codec.AppendString(b, h.Strategy)
	return codec.AppendString(b, h.Frontend)
}

func (h *headerRec) unmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	*h = headerRec{ConfigFP: r.Uvarint(), Seed: r.Varint(), Instances: r.Int(), Programs: r.Int(), Epochs: r.Int(),
		Strategy: r.String(), Frontend: r.String()}
	return r.Done()
}

func (c *CommitRec) appendBinary(b []byte) []byte {
	b = codec.AppendInt(b, c.EpochsDone)
	b = codec.AppendUvarint(b, uint64(len(c.Corpus)))
	for _, e := range c.Corpus {
		b = appendProg(b, e.Src)
		b = codec.AppendInt(b, e.NewBits)
		b = codec.AppendBool(b, e.Violating)
	}
	return appendCoverage(b, c.Coverage)
}

func (c *CommitRec) unmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	*c = CommitRec{EpochsDone: r.Int()}
	if n := r.Count(minCorpusBytes); n > 0 {
		c.Corpus = make([]CorpusRec, n)
	}
	for i := range c.Corpus {
		c.Corpus[i] = CorpusRec{Src: readProg(&r), NewBits: r.Int(), Violating: r.Bool()}
	}
	c.Coverage = readCoverage(&r)
	return r.Done()
}

func appendPending(b []byte, ps []PendingRec) []byte {
	b = codec.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendProg(codec.AppendInt(codec.AppendInt(b, p.Inst), p.Prog), p.GenSrc)
	}
	return b
}

func readPending(data []byte) ([]PendingRec, error) {
	r := codec.NewReader(data)
	var ps []PendingRec
	if n := r.Count(minPendingBytes); n > 0 {
		ps = make([]PendingRec, n)
	}
	for i := range ps {
		ps[i] = PendingRec{Inst: r.Int(), Prog: r.Int(), GenSrc: readProg(&r)}
	}
	return ps, r.Done()
}

// DecodeRecord decodes the payload of one record of the given kind, as Walk
// yields them: a *State holding only the campaign identity for a header, a
// *UnitRec, a *CommitRec, or a []PendingRec. It checks what one record can
// say on its own; what records say together (a unit recorded twice, a
// commit going back) is Load's to check.
func DecodeRecord(kind byte, payload []byte) (any, error) {
	switch kind {
	case RecHeader:
		return decodeHeader(payload)
	case RecUnit:
		u := &UnitRec{}
		return u, u.UnmarshalBinary(payload)
	case RecCommit:
		c := &CommitRec{}
		return c, c.unmarshalBinary(payload)
	case RecPending:
		return readPending(payload)
	}
	return nil, fmt.Errorf("unknown record kind %#x", kind)
}
