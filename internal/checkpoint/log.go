package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/sith-lab/amulet-go/internal/faultinject"
)

// magic opens every checkpoint file; a format change bumps it, and Load
// refuses any other tag rather than guessing. Version 2 was a single
// whole-state JSON document rewritten at every save; version 3 the
// append-only record log with JSON payloads; version 4 that log with binary
// payloads but each frontend's JSON for source programs; version 5 stores
// those in their frontend's binary form too, as the package comment
// describes.
const magic = "AMULETCKPT5\n"

// Record kinds, as Walk reports them.
const (
	RecHeader  byte = 'H' // campaign identity; always the first record
	RecUnit    byte = 'U' // one completed unit (UnitRec, GenSrc never set)
	RecCommit  byte = 'C' // an epoch boundary
	RecPending byte = 'P' // the uncommitted epoch's done units and their programs ([]PendingRec)
)

// frameLen is the fixed part of a record: kind (1 byte), payload length
// (4 bytes, little-endian), CRC-32C of kind, length and payload (4 bytes,
// little-endian).
const frameLen = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerRec is the campaign identity a log opens with.
type headerRec struct {
	ConfigFP                    uint64
	Seed                        int64
	Instances, Programs, Epochs int
	Strategy, Frontend          string
}

// CommitRec marks an epoch boundary: EpochsDone epochs are complete and
// admitted, Corpus holds the entries admitted since the previous commit
// record, Coverage the merged coverage words as of this boundary.
type CommitRec struct {
	EpochsDone int
	Corpus     []CorpusRec
	Coverage   []uint64
}

// PendingRec names one done unit whose epoch has not been committed yet
// (corpus strategy), with its generated program — what resume needs to
// admit the epoch again without re-running the unit. GenSrc is nil for a
// unit admission passed over (it added no coverage feature, so resume
// passes over it too) and for one that finished without a program
// (quarantined or timed out).
type PendingRec struct {
	Inst, Prog int
	GenSrc     *ProgRec
}

// framePool recycles record buffers: every unit is encoded once, on the
// goroutine that produced it, into a buffer no larger than that one record.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// beginFrame reserves a record's fixed part at the end of buf; the payload
// is appended behind it, then endFrame fills the fixed part in.
func beginFrame(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, frameLen)...), len(buf)
}

// endFrame completes the record of the given kind that begins at start.
func endFrame(buf []byte, start int, kind byte) ([]byte, error) {
	rec := buf[start:]
	n := len(rec) - frameLen
	if n > math.MaxUint32 {
		return buf[:start], fmt.Errorf("checkpoint: encode: %d-byte record exceeds the frame's length field", n)
	}
	rec[0] = kind
	binary.LittleEndian.PutUint32(rec[1:5], uint32(n))
	binary.LittleEndian.PutUint32(rec[5:9], frameCRC(rec))
	return buf, nil
}

// frameCRC digests everything of a whole record but the CRC field itself.
func frameCRC(rec []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, rec[:5]), castagnoli, rec[frameLen:])
}

// Log is an open checkpoint file being appended to. Workers append unit
// records concurrently (the encode happens on the caller, only the write is
// serialized); commit and pending records, and Sync, belong to whoever owns
// the campaign's barriers.
type Log struct {
	dir string
	inj *faultinject.Injector

	mu  sync.Mutex // serializes writes and guards the fields below
	f   *os.File
	end int64 // end of the last whole record; a failed append truncates back to it
	// dead, once set, fails every later operation without touching the file:
	// an injected crash (the file must stay as the kill left it), or a failed
	// truncate after a failed write (half a record may sit at end).
	dead error

	dirSync sync.Once // the file's creation is made durable by the first Sync
}

// Create starts a fresh log for the campaign id identifies (its identity
// fields; progress fields are ignored), creating dir if needed and
// replacing any checkpoint already there. Nothing is fsynced: a file that
// ends before its first whole record reads as "no checkpoint yet", so the
// first Sync is early enough.
func Create(dir string, id *State, inj *faultinject.Injector) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l := &Log{dir: dir, inj: inj, f: f}
	buf, start := beginFrame([]byte(magic))
	buf, err = endFrame(id.header().appendBinary(buf), start, RecHeader)
	if err == nil {
		err = l.write(buf)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Resume loads dir's checkpoint and reopens it for appending: the file is
// truncated to the end of the last record Load applied (dropping a torn
// tail, and the units Load refused for want of their program) and later
// records go there — nothing already written is rewritten. A missing or
// still-empty checkpoint returns an error satisfying os.ErrNotExist; the
// caller Creates one.
func Resume(dir string, inj *faultinject.Injector) (*State, *Log, error) {
	path := filepath.Join(dir, FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, end, err := replay(raw)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return st, &Log{dir: dir, inj: inj, f: f, end: int64(end)}, nil
}

// write lands one or more whole records at the end of the log. A failed or
// short write is rolled back by truncating to the last good offset, so half
// a record never sits in front of later ones.
func (l *Log) write(recs []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return l.dead
	}
	fault := l.inj.Append(len(recs))
	n := len(recs)
	if fault.Crash || fault.Fail {
		n = min(n, fault.Keep)
	}
	_, err := l.f.WriteAt(recs[:n], l.end)
	if fault.Crash {
		// The process is "dead": the file stays exactly as the kill left it.
		l.dead = faultinject.ErrInjectedCrash
		return l.dead
	}
	if fault.Fail {
		err = faultinject.ErrInjectedWriteFailure
	}
	if err != nil {
		if terr := l.f.Truncate(l.end); terr != nil {
			l.dead = fmt.Errorf("checkpoint: log abandoned: %w", errors.Join(err, terr))
			return l.dead
		}
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	l.end += int64(len(recs))
	return nil
}

// appendRecord appends one record of the given kind whose payload enc
// appends, encoded on the calling goroutine into a pooled buffer.
func (l *Log) appendRecord(kind byte, enc func([]byte) ([]byte, error)) error {
	p := framePool.Get().(*[]byte)
	defer framePool.Put(p)
	buf, start := beginFrame((*p)[:0])
	buf, err := enc(buf)
	if err == nil {
		buf, err = endFrame(buf, start, kind)
	}
	*p = buf
	if err != nil {
		return err
	}
	return l.write(buf)
}

// AppendUnit appends one completed unit. The unit's program, if resume will
// need it, travels in a later pending record, never here.
func (l *Log) AppendUnit(u *UnitRec) error { return l.appendRecord(RecUnit, u.AppendBinary) }

// AppendEncodedUnit appends the record of a unit whose result arrived
// encoded (ResultRec.AppendBinary): result is written as it is, behind the
// unit header — the record is byte for byte the one its worker encoded.
func (l *Log) AppendEncodedUnit(inst, prog int, draws uint64, result []byte) error {
	return l.appendRecord(RecUnit, func(b []byte) ([]byte, error) {
		return append(AppendUnitHeader(b, inst, prog, draws), result...), nil
	})
}

// AppendPending appends the done units of the epoch still awaiting its
// commit, with the programs resume needs. Every unit record written before
// it counts as resumable from then on, so recs must name all of them.
func (l *Log) AppendPending(recs []PendingRec) error {
	return l.appendRecord(RecPending, func(b []byte) ([]byte, error) { return appendPending(b, recs), nil })
}

// AppendCommit appends an epoch boundary: epochsDone epochs are complete
// and admitted, corpus holds the entries admitted since the previous commit
// record, coverage is the merged bitmap.
func (l *Log) AppendCommit(epochsDone int, corpus []CorpusRec, coverage []uint64) error {
	c := &CommitRec{EpochsDone: epochsDone, Corpus: corpus, Coverage: coverage}
	return l.appendRecord(RecCommit, func(b []byte) ([]byte, error) { return c.appendBinary(b), nil })
}

// Sync makes everything appended so far durable: one fsync of the file and,
// the first time, one of the directory (the file's creation). Appends may
// proceed while it runs.
func (l *Log) Sync() error {
	l.mu.Lock()
	dead := l.dead
	l.mu.Unlock()
	if dead != nil {
		return dead
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.dirSync.Do(func() { syncDirectory(l.dir) })
	return nil
}

// Close releases the file. It does not sync.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead == nil {
		l.dead = os.ErrClosed
	}
	return l.f.Close()
}

// errNoRecord is what a file without one whole record loads as.
var errNoRecord = fmt.Errorf("checkpoint: %s holds no complete record yet: %w", FileName, os.ErrNotExist)

// Walk calls fn with every whole record of a checkpoint file's bytes, in
// order: its kind, its payload (aliasing raw) and the offset at which it
// ends. It never yields anything after a record whose length or CRC fails:
// when that record is the file's last it is a torn append and the walk ends
// before it; when bytes follow it, or it is the header, the file is corrupt.
// Walk returns the offset at which the last yielded record ends — where
// appending resumes. Record lengths are checked against the bytes that
// remain before anything is sliced; nothing is allocated from a length
// field. An error from fn stops the walk and is returned as is.
func Walk(raw []byte, fn func(kind byte, payload []byte, end int) error) (int, error) {
	if len(raw) < len(magic) {
		if bytes.HasPrefix([]byte(magic), raw) {
			return 0, errNoRecord
		}
		return 0, fmt.Errorf("checkpoint: unrecognized format tag: %w", ErrCorrupt)
	}
	if string(raw[:len(magic)]) != magic {
		return 0, fmt.Errorf("checkpoint: unrecognized format tag %q: %w", raw[:len(magic)-1], ErrCorrupt)
	}
	off := len(magic)
	for off < len(raw) {
		rest := raw[off:]
		if len(rest) < frameLen {
			break // torn inside the fixed part
		}
		n := int64(binary.LittleEndian.Uint32(rest[1:5]))
		if frameLen+n > int64(len(rest)) {
			break // the record runs past the end of the file: torn
		}
		rec := rest[:frameLen+n]
		if frameCRC(rec) != binary.LittleEndian.Uint32(rec[5:9]) {
			if len(rec) < len(rest) || off == len(magic) {
				return off, fmt.Errorf("checkpoint: record at offset %d fails its CRC: %w", off, ErrCorrupt)
			}
			break // the last record: a torn append
		}
		if err := fn(rec[0], rec[frameLen:], off+len(rec)); err != nil {
			return off, err
		}
		off += len(rec)
	}
	return off, nil
}

// replay folds raw's records into the state they describe and returns it
// with the offset appending resumes at.
func replay(raw []byte) (*State, int, error) {
	r := replayer{seen: map[unitKey]int{}}
	// The unresolved tail — the unit records written since the last commit
	// or pending record — begins at offset tailAt, unit tailIdx.
	tailAt, tailIdx := len(magic), 0
	off, err := Walk(raw, func(kind byte, payload []byte, end int) error {
		if err := r.apply(kind, payload); err != nil {
			return fmt.Errorf("checkpoint: record ending at offset %d: %v: %w", end, err, ErrCorrupt)
		}
		if kind != RecUnit {
			tailAt, tailIdx = end, len(r.st.Units)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	st := r.st
	if st == nil {
		return nil, 0, errNoRecord
	}

	if st.Strategy == StrategyCorpus {
		// A unit of an unadmitted epoch is resumable only with its program,
		// and the tail's programs never reached the log: drop the tail, and
		// let resume run those units again.
		lo := st.pendingLo()
		for _, u := range st.Units[tailIdx:] {
			if u.Prog < lo {
				return nil, 0, fmt.Errorf("checkpoint: unit (%d,%d) of an admitted epoch recorded after its commit: %w", u.Inst, u.Prog, ErrCorrupt)
			}
		}
		st.Units, off = st.Units[:tailIdx], tailAt
		// Programs of admitted epochs are history; the corpus holds the
		// ones that mattered.
		for i := range st.Units {
			if st.Units[i].Prog < lo {
				st.Units[i].GenSrc = nil
			}
		}
	}
	sort.Slice(st.Units, func(a, b int) bool {
		ua, ub := &st.Units[a], &st.Units[b]
		return ua.Inst < ub.Inst || ua.Inst == ub.Inst && ua.Prog < ub.Prog
	})
	return st, off, nil
}

type unitKey struct{ inst, prog int }

// replayer folds CRC-valid records into a State.
type replayer struct {
	st   *State          // nil until the header record
	seen map[unitKey]int // unit → index in st.Units
}

// apply folds one record. Its errors describe a record that is intact but
// wrong — the caller reports them as corruption.
func (r *replayer) apply(kind byte, payload []byte) error {
	if (kind == RecHeader) != (r.st == nil) {
		return errors.New("header record out of place")
	}
	st := r.st
	switch kind {
	case RecHeader:
		var err error
		r.st, err = decodeHeader(payload)
		return err
	case RecUnit:
		var u UnitRec
		if err := u.UnmarshalBinary(payload); err != nil {
			return err
		}
		if u.Inst < 0 || u.Inst >= st.Instances || u.Prog < 0 || u.Prog >= st.Programs {
			return fmt.Errorf("unit (%d,%d) out of campaign bounds %dx%d", u.Inst, u.Prog, st.Instances, st.Programs)
		}
		key := unitKey{u.Inst, u.Prog}
		if _, dup := r.seen[key]; dup {
			return fmt.Errorf("unit (%d,%d) recorded twice", u.Inst, u.Prog)
		}
		u.GenSrc = nil // programs travel in pending records only
		r.seen[key] = len(st.Units)
		st.Units = append(st.Units, u)
	case RecCommit:
		var c CommitRec
		if err := c.unmarshalBinary(payload); err != nil {
			return err
		}
		if c.EpochsDone < st.EpochsDone || c.EpochsDone > st.Epochs {
			return fmt.Errorf("commit of %d epochs after %d, of %d", c.EpochsDone, st.EpochsDone, st.Epochs)
		}
		st.EpochsDone = c.EpochsDone
		st.Corpus = append(st.Corpus, c.Corpus...)
		st.Coverage = c.Coverage
	case RecPending:
		ps, err := readPending(payload)
		if err != nil {
			return err
		}
		for _, p := range ps {
			i, ok := r.seen[unitKey{p.Inst, p.Prog}]
			if !ok {
				return fmt.Errorf("pending program for unit (%d,%d), which has no record", p.Inst, p.Prog)
			}
			st.Units[i].GenSrc = p.GenSrc
		}
	default:
		return fmt.Errorf("unknown record kind %#x", kind)
	}
	return nil
}

// maxGrid bounds a header's instance and program counts, so that arithmetic
// on them cannot overflow whatever a crafted file claims.
const maxGrid = 1 << 31

func decodeHeader(payload []byte) (*State, error) {
	var h headerRec
	if err := h.unmarshalBinary(payload); err != nil {
		return nil, err
	}
	if h.Instances < 1 || h.Instances > maxGrid || h.Programs < 1 || h.Programs > maxGrid ||
		h.Epochs < 1 || h.Epochs > h.Programs {
		return nil, fmt.Errorf("impossible campaign shape %dx%d, %d epochs", h.Instances, h.Programs, h.Epochs)
	}
	return &State{
		ConfigFP: h.ConfigFP, Seed: h.Seed,
		Instances: h.Instances, Programs: h.Programs, Epochs: h.Epochs,
		Strategy: h.Strategy, Frontend: h.Frontend,
	}, nil
}

func (st *State) header() *headerRec {
	return &headerRec{
		ConfigFP: st.ConfigFP, Seed: st.Seed,
		Instances: st.Instances, Programs: st.Programs, Epochs: st.Epochs,
		Strategy: st.Strategy, Frontend: st.Frontend,
	}
}

// pendingLo is the first program index of the first unadmitted epoch:
// epochs split programs into contiguous near-equal ranges, exactly as the
// engine's epochBounds does.
func (st *State) pendingLo() int {
	return int(int64(st.EpochsDone) * int64(st.Programs) / int64(st.Epochs))
}

// encodeState renders st as a whole log: header, unit records, one commit
// record, and a pending record when units still carry their programs.
func encodeState(st *State) ([]byte, error) {
	buf, start := beginFrame([]byte(magic))
	buf, err := endFrame(st.header().appendBinary(buf), start, RecHeader)
	var pending []PendingRec
	for i := 0; err == nil && i < len(st.Units); i++ {
		u := &st.Units[i]
		if u.GenSrc != nil {
			pending = append(pending, PendingRec{Inst: u.Inst, Prog: u.Prog, GenSrc: u.GenSrc})
		}
		buf, start = beginFrame(buf)
		if buf, err = u.AppendBinary(buf); err == nil {
			buf, err = endFrame(buf, start, RecUnit)
		}
	}
	if err == nil {
		c := &CommitRec{EpochsDone: st.EpochsDone, Corpus: st.Corpus, Coverage: st.Coverage}
		buf, start = beginFrame(buf)
		buf, err = endFrame(c.appendBinary(buf), start, RecCommit)
	}
	if err == nil && pending != nil {
		buf, start = beginFrame(buf)
		buf, err = endFrame(appendPending(buf, pending), start, RecPending)
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}
