package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/sith-lab/amulet-go/internal/checkpoint"
	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/fuzzer"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// TestDumpLog writes a small known log — header, a violating unit, a
// commit — and reads it back through -dump-log: one JSON object per
// record, inputs rendered as registers, fill and written words.
func TestDumpLog(t *testing.T) {
	dir := t.TempDir()
	l, err := checkpoint.Create(dir, &checkpoint.State{ConfigFP: 7, Seed: 1, Instances: 1, Programs: 4, Epochs: 1,
		Strategy: "random", Frontend: isa.ToyName}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb := isa.Sandbox{Pages: 2}
	inA, inB := isa.NewInput(sb), isa.NewInput(sb)
	inA.Regs[3] = 0x40
	inA.Mem.Reset(isa.StreamFill(99, 5))
	inA.Mem.Write(isa.DataBase+isa.PageSize+16, 8, 0xfeed)
	inB.Mem.Write(isa.DataBase+8, 4, 0x1234)
	prog := &isa.Program{Insts: []isa.Inst{isa.Load(1, 3, 0, 8), isa.Fence()}}
	encA, encB, _ := fuzzer.PackInputs(nil, inA, inB)
	unit := &checkpoint.UnitRec{Inst: 0, Prog: 2, RNGDraws: 17, Result: checkpoint.ResultRec{TestCases: 30, Programs: 1,
		Violations: []checkpoint.ViolationRec{{Defense: "baseline", Contract: "CT-SEQ", Program: prog, Sandbox: sb,
			InputA: encA, InputB: encB, CTrace: contract.Trace{{Kind: contract.ObsLoadAddr, V: 0x200040}}, ProgramIndex: 2}}}}
	if err := l.AppendUnit(unit); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var out bytes.Buffer
	if err := dumpLog(&out, dir); err != nil {
		t.Fatal(err)
	}
	type input struct {
		Regs  []uint64
		Fill  *struct{ Base, N0 uint64 }
		Words [][2]uint64
	}
	type line struct {
		Kind   string
		Inst   *int
		Prog   *int
		Draws  *uint64
		Header *struct{ Instances, Programs int }
		Result *struct {
			TestCases  int
			Violations []struct {
				Defense, Program, CTrace string
				Pages                    int
				InputA, InputB           input
			}
		}
		EpochsDone *int `json:"epochs_done"`
	}
	var lines []line
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", len(lines)+1, err, sc.Bytes())
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 || lines[0].Kind != "H" || lines[1].Kind != "U" || lines[2].Kind != "C" {
		t.Fatalf("dump of a 3-record log: %d lines\n%s", len(lines), out.String())
	}
	if h := lines[0].Header; h == nil || h.Instances != 1 || h.Programs != 4 {
		t.Errorf("header line: %+v", h)
	}
	u := lines[1]
	if u.Prog == nil || *u.Prog != 2 || *u.Draws != 17 || u.Result == nil || u.Result.TestCases != 30 || len(u.Result.Violations) != 1 {
		t.Fatalf("unit line does not say the unit: %+v", u)
	}
	v := u.Result.Violations[0]
	if v.Defense != "baseline" || v.Pages != 2 || v.Program != prog.String() || v.CTrace != unit.Result.Violations[0].CTrace.String() {
		t.Errorf("violation rendered as %+v", v)
	}
	wantA := input{Regs: inA.Regs[:], Fill: &struct{ Base, N0 uint64 }{99, 5}, Words: [][2]uint64{{isa.PageSize + 16, 0xfeed}}}
	wantB := input{Regs: inB.Regs[:], Words: [][2]uint64{{8, 0x1234}}}
	if !reflect.DeepEqual(v.InputA, wantA) || !reflect.DeepEqual(v.InputB, wantB) {
		t.Errorf("inputs rendered as\n%+v\n%+v\nwant\n%+v\n%+v", v.InputA, v.InputB, wantA, wantB)
	}
	if lines[2].EpochsDone == nil || *lines[2].EpochsDone != 1 {
		t.Errorf("commit line: epochs_done %v", lines[2].EpochsDone)
	}
}
