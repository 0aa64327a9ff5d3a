package contract_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/contract"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// TestModelReuseMatchesFresh pins the reuse every campaign relies on: one
// Model, retargeted program after program through Load, must give each input
// exactly the trace and usage summary a freshly built Model gives it — no
// emulator memory, checkpoint, trace or usage state may survive an input, a
// CT-COND excursion or a program. Odd inputs are mutants, which mix the
// generator's background pages with materialized ones. Both summaries must
// match the dense references of export_test.go: the loaded-word list and
// count against every page's bits, and CopyLoaded against a byte-by-byte
// copy driven by Loaded.
func TestModelReuseMatchesFresh(t *testing.T) {
	for _, c := range contracts {
		t.Run(c.Name, func(t *testing.T) {
			// 2 pages, and the paper's 128-page STT sandbox.
			for _, geo := range []struct{ pages, programs int }{{2, 40}, {128, 12}} {
				t.Run(fmt.Sprintf("%d-pages", geo.pages), func(t *testing.T) {
					modelReuseMatchesFresh(t, c, geo.pages, geo.programs)
				})
			}
		})
	}
}

func modelReuseMatchesFresh(t *testing.T, c contract.Contract, pages, programs int) {
	gcfg := generator.DefaultConfig()
	gcfg.Pages = pages
	gcfg.Seed = 9001
	g := generator.New(gcfg)
	mut := generator.NewMutator(9002, !c.ObserveInitRegs, false)
	sb := g.Sandbox()
	var reused *contract.Model
	for p := 0; p < programs; p++ {
		prog := g.Program()
		if reused == nil {
			reused = contract.NewModel(c, prog, sb)
		} else {
			reused.Load(prog, sb)
		}
		mutModel := contract.NewModel(c, prog, sb)
		for k := 0; k < 5; k++ {
			in := g.Input()
			if k%2 == 1 {
				tr, usage := mutModel.Collect(in)
				if m, ok := mut.Mutate(mutModel, in, usage, tr); ok {
					in = m
				}
			}
			fresh := contract.NewModel(c, prog, sb)
			ftr, fu := fresh.Collect(in)
			rtr, ru := reused.Collect(in)
			if !rtr.Equal(ftr) {
				t.Fatalf("program %d input %d: traces differ\nreused=%s\nfresh =%s\n%s", p, k, rtr, ftr, prog)
			}
			if ru.LiveInRegs != fu.LiveInRegs {
				t.Fatalf("program %d input %d: live-in regs differ: reused=%#x fresh=%#x\n%s",
					p, k, ru.LiveInRegs, fu.LiveInRegs, prog)
			}
			if ru.LoadedCount() != fu.LoadedCount() {
				t.Fatalf("program %d input %d: loaded counts differ: reused=%d fresh=%d\n%s",
					p, k, ru.LoadedCount(), fu.LoadedCount(), prog)
			}
			for off := uint64(0); off < sb.Size(); off++ {
				if ru.Loaded(off) != fu.Loaded(off) {
					t.Fatalf("program %d input %d: loaded bit differs at %#x: reused=%v fresh=%v\n%s",
						p, k, off, ru.Loaded(off), fu.Loaded(off), prog)
				}
			}
			for _, u := range []*contract.Usage{ru, fu} {
				if err := u.CheckLoadedIndex(); err != nil {
					t.Fatalf("program %d input %d: %v\n%s", p, k, err, prog)
				}
			}
			// Restore onto a background that differs from the input's.
			got, want := isa.NewImage(sb), isa.NewImage(sb)
			bg := isa.StreamFill(uint64(p*5+k+1), 0)
			got.Reset(bg)
			want.Reset(bg)
			ru.CopyLoaded(got, &in.Mem)
			ru.CopyLoadedBytewise(want, &in.Mem)
			if !bytes.Equal(got.Dense(), want.Dense()) {
				t.Fatalf("program %d input %d: CopyLoaded differs from the byte-by-byte copy\n%s", p, k, prog)
			}
		}
		if reused.Truncated() != 0 {
			t.Fatalf("program %d: %d truncated runs of a generated (loop-free) program", p, reused.Truncated())
		}
	}
}
