package uarch_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/sith-lab/amulet-go/internal/defense/cleanupspec"
	"github.com/sith-lab/amulet-go/internal/defense/delayonmiss"
	"github.com/sith-lab/amulet-go/internal/defense/fenceall"
	"github.com/sith-lab/amulet-go/internal/defense/ghostminion"
	"github.com/sith-lab/amulet-go/internal/defense/invisispec"
	"github.com/sith-lab/amulet-go/internal/defense/speclfb"
	"github.com/sith-lab/amulet-go/internal/defense/stt"
	"github.com/sith-lab/amulet-go/internal/generator"
	"github.com/sith-lab/amulet-go/internal/isa"
	"github.com/sith-lab/amulet-go/internal/uarch"
)

// allDefenses is the defense sweep of the oracle equivalence tests: every
// defense interacts with a different slice of the issue/writeback machinery
// (delays, sinks, squash work, taint propagation, the ROB/LSQ walks of
// SpecLFB and STT), so bit-identity must hold under all of them.
func allDefenses() map[string]func() uarch.Defense {
	return map[string]func() uarch.Defense{
		"baseline":    func() uarch.Defense { return uarch.NopDefense{} },
		"invisispec":  func() uarch.Defense { return invisispec.New(invisispec.Config{}) },
		"cleanupspec": func() uarch.Defense { return cleanupspec.New(cleanupspec.Config{}) },
		"stt":         func() uarch.Defense { return stt.New(stt.Config{}) },
		"speclfb":     func() uarch.Defense { return speclfb.New(speclfb.Config{}) },
		"delayonmiss": func() uarch.Defense { return delayonmiss.New() },
		"ghostminion": func() uarch.Defense { return ghostminion.New() },
		"fenceall":    func() uarch.Defense { return fenceall.New() },
	}
}

// compareCores runs the same test case on a core and on its oracle twin and
// fails on any observable divergence: cycle count, stats, committed
// registers, both µarch-order traces, the full debug log, the L1D/D-TLB/L1I
// snapshots and the branch-predictor digest.
func compareCores(t *testing.T, tag string, got, ref *uarch.Core, prog *isa.Program, sb isa.Sandbox, in *isa.Input) {
	t.Helper()
	run := func(c *uarch.Core) {
		t.Helper()
		if err := c.LoadTest(prog, sb); err != nil {
			t.Fatal(err)
		}
		c.ResetForInput(in)
		c.Log.Enabled = true
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", tag, err, prog)
		}
	}
	run(got)
	run(ref)
	if got.EndCycle() != ref.EndCycle() {
		t.Fatalf("%s: end cycle %d (fast) vs %d (oracle)\n%s", tag, got.EndCycle(), ref.EndCycle(), prog)
	}
	if got.Stats() != ref.Stats() {
		t.Fatalf("%s: stats differ\nfast=%+v\noracle=%+v\n%s", tag, got.Stats(), ref.Stats(), prog)
	}
	if got.Regs() != ref.Regs() {
		t.Fatalf("%s: register files differ\n%s", tag, prog)
	}
	gotLog, refLog := got.Log.Recs, ref.Log.Recs
	if len(gotLog) != len(refLog) {
		t.Fatalf("%s: %d log records (fast) vs %d (oracle)\nfast:\n%soracle:\n%s\n%s",
			tag, len(gotLog), len(refLog), got.Log.String(), ref.Log.String(), prog)
	}
	for i := range gotLog {
		if gotLog[i] != refLog[i] {
			t.Fatalf("%s: log record %d differs: %v (fast) vs %v (oracle)\n%s",
				tag, i, gotLog[i], refLog[i], prog)
		}
	}
	gotAcc, refAcc := got.AccessOrder(), ref.AccessOrder()
	if len(gotAcc) != len(refAcc) {
		t.Fatalf("%s: access-order lengths differ (%d vs %d)\n%s", tag, len(gotAcc), len(refAcc), prog)
	}
	for i := range gotAcc {
		if gotAcc[i] != refAcc[i] {
			t.Fatalf("%s: access-order record %d differs\n%s", tag, i, prog)
		}
	}
	gotBr, refBr := got.BranchOrder(), ref.BranchOrder()
	if len(gotBr) != len(refBr) {
		t.Fatalf("%s: branch-order lengths differ\n%s", tag, prog)
	}
	for i := range gotBr {
		if gotBr[i] != refBr[i] {
			t.Fatalf("%s: branch-order record %d differs\n%s", tag, i, prog)
		}
	}
	for _, snap := range []struct {
		name     string
		got, ref []uint64
	}{
		{"L1D", got.Hier.L1D.Snapshot(), ref.Hier.L1D.Snapshot()},
		{"DTLB", got.Hier.DTLB.Snapshot(), ref.Hier.DTLB.Snapshot()},
		{"L1I", got.Hier.L1I.Snapshot(), ref.Hier.L1I.Snapshot()},
	} {
		if len(snap.got) != len(snap.ref) {
			t.Fatalf("%s: %s snapshot sizes differ\n%s", tag, snap.name, prog)
		}
		for i := range snap.got {
			if snap.got[i] != snap.ref[i] {
				t.Fatalf("%s: %s snapshot differs at %d\n%s", tag, snap.name, i, prog)
			}
		}
	}
	if got.BP.Snapshot() != ref.BP.Snapshot() {
		t.Fatalf("%s: branch-predictor digests differ\n%s", tag, prog)
	}
}

// oracleSweep drives progs programs x inputs inputs of generator seed seed
// through compareCores on a core and its oracle twin, predictor and cache
// state carried across inputs as in a campaign. With cov set both cores
// collect speculation coverage (which also routes specAtIssue through
// ShadowDepth instead of UnderShadow) and the two maps must hold the same
// bits after every case.
func oracleSweep(t *testing.T, tag string, fast, ref *uarch.Core, gcfg generator.Config, progs, inputs int, cov bool) {
	t.Helper()
	g := generator.New(gcfg)
	sb := g.Sandbox()
	var fastCov, refCov *uarch.Coverage
	if cov {
		fastCov, refCov = uarch.NewCoverage(), uarch.NewCoverage()
		fast.SetCoverage(fastCov)
		ref.SetCoverage(refCov)
	}
	for p := 0; p < progs; p++ {
		prog := g.Program()
		for k := 0; k < inputs; k++ {
			in := g.Input()
			compareCores(t, fmt.Sprintf("%s prog %d input %d", tag, p, k), fast, ref, prog, sb, in)
			if cov && fastCov.Digest() != refCov.Digest() {
				t.Fatalf("%s prog %d input %d: coverage digests differ (fast %#x, oracle %#x)\n%s",
					tag, p, k, fastCov.Digest(), refCov.Digest(), prog)
			}
		}
	}
}

// smallROBConfig is a tiny window behind a narrow pipeline: it keeps the
// ROB full, stressing window compaction, squash truncation, fence-at-head
// serialization and the IssueWidth budget cut.
func smallROBConfig() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.ROBSize = 8
	cfg.IssueWidth = 2
	cfg.FetchWidth = 2
	cfg.CommitWidth = 2
	return cfg
}

// TestWindowSizes runs every defense at window sizes from a one-word
// scoreboard (8 entries, 16 slots) to an eight-word one (256 entries) —
// long programs on a fill-primed L1D, so the larger windows actually fill.
// Every size must run to completion, commit the emulator's architectural
// state and be bit-identical to the reference pipeline (scan issue and
// writeback, cycle by cycle). Sizes past 64 are the ones whose window spans
// more than 64 slots, where wake signatures alias.
func TestWindowSizes(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 4242
	gcfg.MinInsts = 180
	gcfg.MaxInsts = 250
	gcfg.MaxBlocks = 8
	for _, rob := range []int{8, 64, 65, 96, 127, 128, 256} {
		for name, mk := range allDefenses() {
			t.Run(fmt.Sprintf("rob%d/%s", rob, name), func(t *testing.T) {
				cfg := uarch.DefaultConfig()
				cfg.ROBSize = rob
				core := uarch.NewCore(cfg, mk())
				scan := uarch.NewCore(cfg, mk())
				scan.UseScanIssue()
				g := generator.New(gcfg)
				sb := g.Sandbox()
				for p := 0; p < 4; p++ {
					prog, in := g.Program(), g.Input()
					core.Hier.PrimeL1D(true)
					scan.Hier.PrimeL1D(true)
					compareCores(t, fmt.Sprintf("prog %d", p), core, scan, prog, sb, in)
					m := newEmu(t, prog, sb, in)
					if core.Regs() != m.Regs {
						t.Fatalf("prog %d: register files differ from the emulator\n%s", p, prog)
					}
					if !bytes.Equal(core.Image().Dense(), m.Mem.Dense()) {
						t.Fatalf("prog %d: committed memory differs from the emulator\n%s", p, prog)
					}
				}
			})
		}
	}
}

// TestStoreTLBLatencyInvisible pins the decision to discard the store's
// address-translation latency (tryIssueStore): the translation's µarch side
// effect — TLB state, the KV3 leak surface — is modeled, but its latency
// cannot be, because a store produces no register value and commit drains
// at CommitWidth regardless. A cold-TLB store and a warm-TLB store must
// therefore retire on the same cycle while their TLB-miss counters differ.
func TestStoreTLBLatencyInvisible(t *testing.T) {
	sb := isa.Sandbox{Pages: 2}
	prog := &isa.Program{Insts: []isa.Inst{
		isa.MovImm(1, 0xab),
		isa.Store(2, 0, 1, 8), // translates at execute; R2 picks the page
	}}
	for i := 0; i < 20; i++ {
		prog.Insts = append(prog.Insts, isa.ALUImm(isa.OpAdd, 3, 3, 1))
	}
	in := isa.NewInput(sb)
	in.Regs[2] = uint64(sb.Size()) / 2 // second page: cold on a fresh TLB

	core := uarch.NewCore(uarch.DefaultConfig(), nil)
	if err := core.LoadTest(prog, sb); err != nil {
		t.Fatal(err)
	}
	run := func(warmTLB bool) (uint64, uint64) {
		core.ResetUarch()
		if warmTLB {
			core.Hier.TranslateData(0, isa.DataBase+in.Regs[2], true)
		}
		core.ResetForInput(in)
		if err := core.Run(); err != nil {
			t.Fatal(err)
		}
		return core.EndCycle(), core.Stats().TLBMisses
	}
	coldEnd, coldMiss := run(false)
	warmEnd, warmMiss := run(true)
	if coldMiss == warmMiss {
		t.Fatalf("TLB warmup not observed (cold %d misses, warm %d)", coldMiss, warmMiss)
	}
	if coldEnd != warmEnd {
		t.Errorf("store TLB latency leaked into timing: cold end %d, warm end %d", coldEnd, warmEnd)
	}
}

// TestCoreRunSteadyStateAllocs pins the zero-alloc invariant of the
// pipeline under every defense, at the paper's window and at a 256-entry
// one: after warm-up, the DynInst arena, the ROB window and its scoreboard
// (sized once by NewCore), the trace slices and the defense's own metadata
// (InvisiSpec's expose queue, SpecLFB's staged lines, CleanupSpec's undo
// records) are all rewound per input — a full ResetForInput + Run cycle
// allocates nothing. The program is long enough that speculative loads
// commit and speculative accesses squash, the events defense metadata is
// recorded and retired on.
func TestCoreRunSteadyStateAllocs(t *testing.T) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 5
	gcfg.MinInsts = 180
	gcfg.MaxInsts = 250
	gcfg.MaxBlocks = 8
	g := generator.New(gcfg)
	sb := g.Sandbox()
	prog := g.Program()
	in := g.Input()
	for _, rob := range []int{64, 256} {
		for name, mk := range allDefenses() {
			t.Run(fmt.Sprintf("rob%d/%s", rob, name), func(t *testing.T) {
				cfg := uarch.DefaultConfig()
				cfg.ROBSize = rob
				core := uarch.NewCore(cfg, mk())
				if err := core.LoadTest(prog, sb); err != nil {
					t.Fatal(err)
				}
				run := func() {
					// A fill-primed L1D makes the sandbox accesses miss, so
					// speculative loads have lines to stage, expose and undo.
					core.Hier.PrimeL1D(true)
					core.ResetForInput(in)
					if err := core.Run(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 5; i++ {
					run() // size the arena, trace slices and defense metadata
				}
				if st := core.Stats(); st.Squashed == 0 || st.L1DMisses == 0 {
					t.Fatalf("the program does not exercise speculation (stats %+v)", st)
				}
				if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
					t.Errorf("Core.Run allocates %v objects per input in steady state, want 0", allocs)
				}
			})
		}
	}
}

// benchCoreRun measures the raw pipeline: one simulated test case per
// iteration with Opt-style resets, without generation or comparison costs.
// Beside ns/op it reports the simulated cycles per case and the host time
// per simulated cycle, so a change that alters the simulated work shows
// apart from one that only changes its cost.
func benchCoreRun(b *testing.B, gcfg generator.Config, cfg uarch.Config, def uarch.Defense, primeL1D bool) {
	g := generator.New(gcfg)
	sb := g.Sandbox()
	core := uarch.NewCore(cfg, def)
	const nProgs = 8
	progs := make([]*isa.Program, nProgs)
	inputs := make([]*isa.Input, nProgs)
	for i := range progs {
		progs[i] = g.Program()
		inputs[i] = g.Input()
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % nProgs
		if err := core.LoadTest(progs[k], sb); err != nil {
			b.Fatal(err)
		}
		if primeL1D {
			core.Hier.PrimeL1D(true)
		}
		core.ResetForInput(inputs[k])
		if err := core.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += core.Stats().Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "host-ns/cycle")
}

// BenchmarkCoreRun is the paper geometry: 64-entry ROB, 36-56-instruction
// programs, scoreboard issue. It runs no defense on an unprimed L1D, so
// after the first iterations nearly every load hits.
func BenchmarkCoreRun(b *testing.B) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 17
	benchCoreRun(b, gcfg, uarch.DefaultConfig(), nil, false)
}

// BenchmarkCoreRunPrimed is the pipeline in the regime a campaign runs it
// in (the sim-invisispec workload): paper geometry, InvisiSpec, and a
// fill-primed L1D before every case, so nearly every load misses and most
// cycles wait on fills with instructions blocked behind them.
func BenchmarkCoreRunPrimed(b *testing.B) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 17
	benchCoreRun(b, gcfg, uarch.DefaultConfig(), invisispec.New(invisispec.Config{}), true)
}

// BenchmarkCoreRunLargeWindow keeps the large-window cost of the one
// pipeline on record: a 256-entry window (an eight-word scoreboard whose
// wake signatures alias), ~200-instruction programs and a fill-primed
// (all-miss) L1D — the regime where a per-cycle ROB walk would cost the
// most.
func BenchmarkCoreRunLargeWindow(b *testing.B) {
	gcfg := generator.DefaultConfig()
	gcfg.Seed = 17
	gcfg.MinInsts = 180
	gcfg.MaxInsts = 250
	gcfg.MaxBlocks = 8
	cfg := uarch.DefaultConfig()
	cfg.ROBSize = 256
	benchCoreRun(b, gcfg, cfg, nil, true)
}
