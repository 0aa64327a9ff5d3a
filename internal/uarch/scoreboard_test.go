package uarch_test

import (
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// TestScoreboardBitIdentity is the direct equivalence proof of the issue
// scoreboard: for every defense, random programs and inputs with state
// carried across inputs, the scoreboard walks (waiting/blocked/executing
// slot masks against a completion mask) and the reference pipeline
// (full-ROB scans with per-producer DepsDone checks, cycle by cycle) must
// produce identical cycle counts, stats, debug logs, µarch-order traces and
// snapshots — and, in the coverage pass, identical coverage bits.
func TestScoreboardBitIdentity(t *testing.T) {
	for name, mk := range allDefenses() {
		for _, cov := range []bool{false, true} {
			tag := name
			if cov {
				tag += "/coverage"
			}
			t.Run(tag, func(t *testing.T) {
				gcfg := generator.DefaultConfig()
				gcfg.Seed = 271
				gcfg.Pages = 2
				sc := uarch.NewCore(uarch.DefaultConfig(), mk())
				scan := uarch.NewCore(uarch.DefaultConfig(), mk())
				scan.UseScanIssue()
				progs := 20
				if cov {
					progs = 8
				}
				oracleSweep(t, tag, sc, scan, gcfg, progs, 3, cov)
			})
		}
	}
}

// TestScoreboardBitIdentitySmallROB stresses the compaction rebuild (RobIdx
// renumbering re-derives every mask and wait set) and the squash
// truncation of the masks with a tiny window and narrow pipeline.
func TestScoreboardBitIdentitySmallROB(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 272
	sc := uarch.NewCore(smallROBConfig(), nil)
	scan := uarch.NewCore(smallROBConfig(), nil)
	scan.UseScanIssue()
	oracleSweep(t, "small-rob", sc, scan, gcfg, 40, 1, false)
}

// checkedDefense wraps a defense and checks the core's scoreboard against
// a recomputation from the ROB (CheckScoreboard) on every cycle the core
// simulates — OnTick runs once per simulated cycle, between the previous
// cycle's stages and this one's. It keeps the first failure and counts the
// ticks, so a test can tell how many cycles a quiescent-span skip elided.
type checkedDefense struct {
	uarch.Defense
	core  *uarch.Core
	ticks uint64
	err   error
}

func (d *checkedDefense) Attach(c *uarch.Core) {
	d.core = c
	d.Defense.Attach(c)
}

func (d *checkedDefense) OnTick() {
	d.ticks++
	if d.err == nil {
		if err := d.core.CheckScoreboard(); err != nil {
			d.err = fmt.Errorf("cycle %d: %w", d.core.Now(), err)
		}
	}
	d.Defense.OnTick()
}

// TestScoreboardInvariants checks the scoreboard's masks on every simulated
// cycle — under every defense, at the paper geometry, on the tiny window
// that compacts constantly and on two windows wider than 64 entries (three
// and eight mask words, aliasing wake signatures) fed long programs, with
// coverage off and on — while the same runs are held bit-identical to the
// reference pipeline (scan issue and writeback, cycle by cycle).
func TestScoreboardInvariants(t *testing.T) {
	largeROB := func(rob int) uarch.Config {
		cfg := uarch.DefaultConfig()
		cfg.ROBSize = rob
		return cfg
	}
	for name, mk := range allDefenses() {
		for _, geo := range []struct {
			name  string
			cfg   uarch.Config
			progs int
			long  bool
		}{
			{"default", uarch.DefaultConfig(), 20, false},
			{"small-rob", smallROBConfig(), 20, false},
			{"rob96", largeROB(96), 6, true},
			{"rob256", largeROB(256), 6, true},
		} {
			for _, cov := range []bool{false, true} {
				tag := name + "/" + geo.name
				if cov {
					tag += "/coverage"
				}
				t.Run(tag, func(t *testing.T) {
					gcfg := generator.DefaultConfig()
					gcfg.Seed = 273
					gcfg.Pages = 2
					if geo.long {
						gcfg.MinInsts = 180
						gcfg.MaxInsts = 250
						gcfg.MaxBlocks = 8
					}
					chk := &checkedDefense{Defense: mk()}
					fast := uarch.NewCore(geo.cfg, chk)
					ref := uarch.NewCore(geo.cfg, mk())
					ref.UseScanIssue()
					oracleSweep(t, tag, fast, ref, gcfg, geo.progs, 2, cov)
					if chk.err != nil {
						t.Fatal(chk.err)
					}
					if chk.ticks == 0 {
						t.Fatal("the check never ran")
					}
				})
			}
		}
	}
}

// TestScoreboardWakeCases drives hand-built programs through the wake
// transitions random programs rarely line up, on a fill-primed L1D so the
// loads miss: each must match the scan + cycle-by-cycle oracle bit for bit,
// with the scoreboard checked on every simulated cycle, under every
// defense, twice in a row (predictor and dependence-predictor state
// carried over, as in a campaign).
func TestScoreboardWakeCases(t *testing.T) {
	sb := isa.Sandbox{Pages: 2}
	addi := func(dst, src isa.Reg, imm int64) isa.Inst { return isa.ALUImm(isa.OpAdd, dst, src, imm) }
	mul := func(dst, a, b isa.Reg) isa.Inst { return isa.ALU(isa.OpMul, dst, a, b) }
	var compaction []isa.Inst
	for i := 0; i < 10; i++ {
		compaction = append(compaction, addi(11, 12, int64(i)))
	}
	compaction = append(compaction,
		isa.Load(1, 2, 0, 8),
		addi(4, 1, 1),
		isa.ALU(isa.OpAdd, 5, 4, 1),
		isa.Store(3, 64, 4, 8),
		addi(6, 5, 3),
		addi(7, 3, 1),
		isa.Load(8, 7, 200, 8),
	)
	for i := 0; i < 12; i++ {
		compaction = append(compaction, addi(isa.Reg(9+i%3), isa.Reg(4+i%4), int64(i)))
	}
	cases := []struct {
		name  string
		cfg   uarch.Config
		insts []isa.Inst
		check func(t *testing.T, st uarch.Stats, ticks uint64)
	}{{
		// The fence is blocked away from the head until the missing load
		// commits, and only commit wakes it. The span in between has
		// nothing to do but wait, so it must still be skipped.
		name: "fence behind a missing load",
		cfg:  uarch.DefaultConfig(),
		insts: []isa.Inst{
			isa.Load(1, 2, 0, 8),
			isa.Fence(),
			addi(3, 1, 1),
			isa.Load(4, 3, 64, 8),
		},
		check: func(t *testing.T, st uarch.Stats, ticks uint64) {
			if st.L1DMisses == 0 {
				t.Fatalf("the load does not miss (stats %+v)", st)
			}
			if ticks >= st.Cycles {
				t.Fatalf("no cycle was skipped: %d ticks in %d cycles", ticks, st.Cycles)
			}
		},
	}, {
		// The store's address is ready at dispatch; its data comes from
		// the missing load. After the address phase it waits on the data
		// producer, and the younger load to the same bytes waits on it.
		name: "store data behind a missing load",
		cfg:  uarch.DefaultConfig(),
		insts: []isa.Inst{
			isa.Load(1, 2, 0, 8),
			isa.Store(3, 128, 1, 8),
			isa.Load(4, 3, 128, 8),
			addi(5, 4, 1),
			addi(6, 3, 2),
			isa.Store(3, 256, 6, 8),
		},
		check: func(t *testing.T, st uarch.Stats, _ uint64) {
			if st.L1DMisses == 0 {
				t.Fatalf("the load does not miss (stats %+v)", st)
			}
		},
	}, {
		// The store's address and two ALU ops wait on the same multiply
		// and wake together; the store comes first in the walk, resolves
		// its address onto the bytes a younger load already read and
		// squashes from that load, ending the walk before the two ready
		// ops. Its data still waits on a longer multiply chain.
		name: "memory-order squash mid-walk",
		cfg:  uarch.DefaultConfig(),
		insts: []isa.Inst{
			mul(1, 2, 2),
			mul(5, 2, 2),
			mul(5, 5, 2),
			mul(5, 5, 2),
			isa.Store(1, 0, 5, 8),
			addi(6, 1, 7),
			addi(7, 1, 9),
			isa.Load(8, 9, 0, 8),
			addi(10, 8, 1),
		},
		check: func(t *testing.T, st uarch.Stats, _ uint64) {
			if st.MemOrderViolations == 0 {
				t.Fatalf("no memory-order squash (stats %+v)", st)
			}
		},
	}, {
		// Ten quick ops slide the 8-entry window up its 16-slot buffer, so
		// the dispatches behind the missing load compact it while the
		// load's consumers, a store waiting on data and the ops after them
		// are blocked.
		name:  "compaction with blocked entries",
		cfg:   smallROBConfig(),
		insts: compaction,
		check: func(t *testing.T, st uarch.Stats, _ uint64) {
			if st.Fetched <= 16 || st.L1DMisses == 0 {
				t.Fatalf("the window never wrapped its buffer behind a miss (stats %+v)", st)
			}
		},
	}}
	for _, tc := range cases {
		for name, mk := range allDefenses() {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				prog := &isa.Program{Insts: tc.insts}
				in := isa.NewInput(sb)
				in.Regs[2] = 512
				in.Regs[3] = 1024
				chk := &checkedDefense{Defense: mk()}
				fast := uarch.NewCore(tc.cfg, chk)
				ref := uarch.NewCore(tc.cfg, mk())
				ref.UseScanIssue()
				for run := 0; run < 2; run++ {
					fast.Hier.PrimeL1D(true)
					ref.Hier.PrimeL1D(true)
					chk.ticks = 0
					compareCores(t, fmt.Sprintf("run %d", run), fast, ref, prog, sb, in)
					if chk.err != nil {
						t.Fatalf("run %d: %v\n%s", run, chk.err, prog)
					}
					if run == 0 {
						tc.check(t, fast.Stats(), chk.ticks)
					}
				}
			})
		}
	}
}
