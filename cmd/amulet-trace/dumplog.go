package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// dumpLog writes the records of dir's checkpoint log to w as JSON lines,
// one object per record, in file order: its kind, the offset it ends at,
// and what it says. The log itself is binary; this is how a person reads it.
func dumpLog(w io.Writer, dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	_, err = checkpoint.Walk(raw, func(kind byte, payload []byte, end int) error {
		rec, err := checkpoint.DecodeRecord(kind, payload)
		if err != nil {
			return fmt.Errorf("record ending at offset %d: %w", end, err)
		}
		line := recordView{Kind: string(kind), End: end}
		switch rec := rec.(type) {
		case *checkpoint.State:
			line.Header = &headerView{ConfigFP: rec.ConfigFP, Seed: rec.Seed, Instances: rec.Instances,
				Programs: rec.Programs, Epochs: rec.Epochs, Strategy: rec.Strategy, Frontend: rec.Frontend}
		case *checkpoint.UnitRec:
			line.Inst, line.Prog, line.Draws = &rec.Inst, &rec.Prog, &rec.RNGDraws
			line.Result = viewResult(&rec.Result)
		case *checkpoint.CommitRec:
			line.EpochsDone, line.Coverage = &rec.EpochsDone, rec.Coverage
			for _, c := range rec.Corpus {
				line.Corpus = append(line.Corpus, corpusView{Src: viewProg(c.Src), NewBits: c.NewBits, Violating: c.Violating})
			}
		case []checkpoint.PendingRec:
			for _, p := range rec {
				line.Pending = append(line.Pending, pendingView{Inst: p.Inst, Prog: p.Prog, GenSrc: viewProg(p.GenSrc)})
			}
		}
		return enc.Encode(&line)
	})
	return err
}

// recordView is one line of the dump; the fields of the record's kind are
// set.
type recordView struct {
	Kind string `json:"kind"`
	End  int    `json:"end"`

	Header *headerView `json:"header,omitempty"`

	Inst   *int        `json:"inst,omitempty"`
	Prog   *int        `json:"prog,omitempty"`
	Draws  *uint64     `json:"draws,omitempty"`
	Result *resultView `json:"result,omitempty"`

	EpochsDone *int         `json:"epochs_done,omitempty"`
	Corpus     []corpusView `json:"corpus,omitempty"`
	Coverage   []uint64     `json:"coverage,omitempty"`

	Pending []pendingView `json:"pending,omitempty"`
}

type headerView struct {
	ConfigFP                    uint64
	Seed                        int64
	Instances, Programs, Epochs int
	Strategy, Frontend          string
}

// resultView is a ResultRec with its violations rendered readably.
type resultView struct {
	checkpoint.ResultRec
	Violations []violationView `json:",omitempty"`
}

type violationView struct {
	Defense, Contract, Frontend string
	Source                      *progView `json:",omitempty"`
	Program                     string
	Pages                       int
	InputA, InputB              inputView
	CTrace                      string
	ProgramIndex                int
	DetectedAt                  string
}

// inputView is an input as the log holds it: registers, the background
// fill, and the words written down over it (sandbox offset and value).
type inputView struct {
	Regs  [isa.NumRegs]uint64
	Fill  *fillView `json:",omitempty"`
	Words [][2]uint64
	Error string `json:",omitempty"`
}

type fillView struct{ Base, N0 uint64 }

type progView struct {
	Frontend string
	Program  string `json:",omitempty"`
	Error    string `json:",omitempty"`
}

type corpusView struct {
	Src       *progView
	NewBits   int
	Violating bool
}

type pendingView struct {
	Inst, Prog int
	GenSrc     *progView `json:",omitempty"`
}

func viewResult(r *checkpoint.ResultRec) *resultView {
	out := &resultView{ResultRec: *r}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, violationView{
			Defense: v.Defense, Contract: v.Contract, Frontend: v.Frontend,
			Source: viewProg(v.Source), Program: v.Program.String(), Pages: v.Sandbox.Pages,
			InputA: viewInput(v.InputA), InputB: viewInput(v.InputB),
			CTrace: v.CTrace.String(), ProgramIndex: v.ProgramIndex, DetectedAt: v.DetectedAt.String(),
		})
	}
	return out
}

// viewInput decodes an input's binary form; the log reader has already
// refused one that does not decode.
func viewInput(enc []byte) inputView {
	var in isa.Input
	if err := in.UnmarshalBinary(enc); err != nil {
		return inputView{Error: err.Error()}
	}
	out := inputView{Regs: in.Regs, Words: [][2]uint64{}}
	if base, n0, ok := in.Mem.Background().Stream(); ok {
		out.Fill = &fillView{Base: base, N0: n0}
	}
	in.Mem.Written(func(off, w uint64) { out.Words = append(out.Words, [2]uint64{off, w}) })
	return out
}

// viewProg renders a frontend program as its disassembly.
func viewProg(p *checkpoint.ProgRec) *progView {
	if p == nil {
		return nil
	}
	out := &progView{Frontend: p.Frontend}
	if src, err := p.Decode(); err != nil {
		out.Error = err.Error()
	} else {
		out.Program = src.String()
	}
	return out
}
