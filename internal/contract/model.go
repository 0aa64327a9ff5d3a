package contract

import (
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Usage summarizes which parts of the input the architectural execution
// path actually consumed. The input mutator uses it to randomize only state
// that cannot influence the contract trace (AMuLeT's contract-preserving
// input mutation): memory bytes never loaded and registers never read
// before being written are free to vary.
//
// Byte-level tracking uses bitsets over the sandbox offset space (one bit
// per byte) instead of hash maps: the model marks bytes on every
// architectural load and store, and the mutator probes membership for every
// candidate byte, so both sides of the hot loop are word operations. A test
// touches a few dozen bytes of a sandbox of up to 2 MB, so the bitsets are
// paged like the memory they describe (isa.Image): a page's bits exist only
// while a byte of that page is marked, and the marked pages are kept as a
// list. Building, clearing, counting and walking the summary cost O(touched),
// not O(sandbox); membership stays O(1).
type Usage struct {
	// pages holds, per sandbox page, the bits of its bytes; nil: none marked.
	pages []*pageUse
	// touched lists the indices of the non-nil pages, in first-touch order.
	touched []uint32
	// spare holds cleared pages released by Reset, for the next input.
	spare []*pageUse
	// LiveInRegs is a bitmask of registers read on the architectural path
	// before being written.
	LiveInRegs uint16
}

// pageUse is the usage of one sandbox page, one bit per byte.
type pageUse struct {
	// loaded marks offsets whose *initial* value was read by an
	// architectural load, i.e. offsets loaded before any architectural store
	// clobbered them. Offsets that are stored first and only read afterwards
	// are not recorded: their initial content never reaches the
	// architectural data flow, which is exactly what makes them usable as
	// Spectre-v4 secrets.
	loaded [isa.PageSize / 64]uint64
	// clobbered marks offsets overwritten by an architectural store.
	clobbered [isa.PageSize / 64]uint64
}

// word splits a sandbox offset into its page, its word within the page's
// bitsets, and its bit within the word.
func word(off uint64) (page, w uint64, bit uint64) {
	return off / isa.PageSize, off % isa.PageSize / 64, 1 << (off % 64)
}

// NewUsage returns an empty usage summary for sandbox sb.
func NewUsage(sb isa.Sandbox) *Usage {
	return &Usage{pages: make([]*pageUse, sb.Pages)}
}

// Reset clears the summary for reuse across inputs.
func (u *Usage) Reset() {
	for _, pi := range u.touched {
		*u.pages[pi] = pageUse{}
		u.spare = append(u.spare, u.pages[pi])
		u.pages[pi] = nil
	}
	u.touched = u.touched[:0]
	u.LiveInRegs = 0
}

// Loaded reports whether the initial byte at sandbox offset off was
// consumed by an architectural load.
func (u *Usage) Loaded(off uint64) bool {
	pi, w, bit := word(off)
	p := u.pages[pi]
	return p != nil && p.loaded[w]&bit != 0
}

// LoadedCount returns the number of architecturally loaded bytes.
func (u *Usage) LoadedCount() int {
	n := 0
	for _, pi := range u.touched {
		for _, w := range u.pages[pi].loaded {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// CopyLoaded copies the byte at every architecturally loaded offset from
// src to dst — the mutator's "restore the contract-visible bytes" fast
// path. Only the pages of dst that hold such a byte are materialized.
func (u *Usage) CopyLoaded(dst, src *isa.Image) {
	for _, pi := range u.touched {
		for wi, w := range u.pages[pi].loaded {
			for ; w != 0; w &= w - 1 {
				off := uint64(pi)*isa.PageSize + uint64(wi*64+bits.TrailingZeros64(w))
				dst.SetByte(off, src.Byte(off))
			}
		}
	}
}

// page returns the bits of sandbox page pi for marking.
func (u *Usage) page(pi uint64) *pageUse {
	p := u.pages[pi]
	if p == nil {
		if n := len(u.spare); n > 0 {
			p, u.spare = u.spare[n-1], u.spare[:n-1]
		} else {
			p = new(pageUse)
		}
		u.pages[pi] = p
		u.touched = append(u.touched, uint32(pi))
	}
	return p
}

func (u *Usage) markLoaded(off uint64) {
	pi, w, bit := word(off)
	u.page(pi).loaded[w] |= bit
}

func (u *Usage) markClobbered(off uint64) {
	pi, w, bit := word(off)
	u.page(pi).clobbered[w] |= bit
}

func (u *Usage) isClobbered(off uint64) bool {
	pi, w, bit := word(off)
	p := u.pages[pi]
	return p != nil && p.clobbered[w]&bit != 0
}

// RegLiveIn reports whether register r was consumed before being defined.
func (u *Usage) RegLiveIn(r isa.Reg) bool { return u.LiveInRegs&(1<<uint(r)) != 0 }

// Model is the executable leakage model: it runs test cases on the
// functional emulator and produces contract traces. One Model is reusable
// across inputs of the same program (the emulator is reset per input).
type Model struct {
	C    Contract
	prog *isa.Program
	sb   isa.Sandbox
	m    *emu.Machine

	// uops is the predecoded micro-op table the specialized interpreter
	// (fastmodel.go) executes; reference runs the hook-driven emu.Machine
	// path instead, the interpreter's test oracle (set only through
	// export_test.go).
	uops      []uop
	reference bool
	truncated int

	// specialized-interpreter scratch, reused across runs
	frames  []specFrame
	journal []memUndo

	// per-run state
	trace   Trace
	usage   *Usage
	track   bool // record usage for this run (Collect yes, CollectTrace no)
	depth   int
	written uint16 // registers defined so far on the arch path
}

// MaxSteps bounds the architectural instruction count per test case. The
// generator emits DAG programs, so this is a defensive limit only.
const MaxSteps = 4096

// NewModel builds a leakage model for program p under contract c.
func NewModel(c Contract, p *isa.Program, sb isa.Sandbox) *Model {
	md := &Model{C: c, prog: p, sb: sb, usage: NewUsage(sb), uops: predecode(p)}
	md.m = emu.New(p, sb, isa.NewInput(sb))
	md.m.Hooks = emu.Hooks{
		OnPC:    md.onPC,
		OnLoad:  md.onLoad,
		OnStore: md.onStore,
	}
	return md
}

// Truncated returns how many runs since NewModel hit the MaxSteps budget
// before the program exited. Generated programs are DAGs, so a non-zero
// count means a malformed or adversarial program silently lost coverage;
// the fuzzer surfaces the count in its metrics rather than dropping it.
func (md *Model) Truncated() int { return md.truncated }

// Collect executes the test case (p, in) under the contract and returns the
// contract trace together with the architectural usage summary. The Usage
// is a buffer owned by the model, reset and rewritten by the next Collect
// call; callers that need it longer (none do — the mutator verifies mutants
// through CollectTrace) must copy it.
func (md *Model) Collect(in *isa.Input) (Trace, *Usage) {
	return md.CollectInto(in, nil)
}

// CollectInto is Collect with a caller-owned trace buffer: the returned
// trace is buf's backing array grown as needed, so a caller that recycles
// buffers (the fuzzer's per-worker TracePool) collects traces without the
// per-input copy allocation Collect pays. Passing nil allocates fresh.
func (md *Model) CollectInto(in *isa.Input, buf Trace) (Trace, *Usage) {
	md.run(in, true)
	return append(buf[:0], md.trace...), md.usage
}

// CollectTrace executes the test case and returns only its contract trace,
// skipping usage tracking. The returned trace is a buffer owned by the
// model, valid until the next Collect/CollectTrace call — it exists for the
// mutation-verification loop, which only compares the trace against the
// base input's and drops it.
func (md *Model) CollectTrace(in *isa.Input) Trace {
	md.run(in, false)
	return md.trace
}

func (md *Model) run(in *isa.Input, track bool) {
	md.trace = md.trace[:0]
	md.track = track
	if track {
		md.usage.Reset()
	}
	md.depth = 0
	md.written = 0

	if md.C.ObserveInitRegs {
		for _, v := range in.Regs {
			md.trace = append(md.trace, Obs{Kind: ObsInitReg, V: v})
		}
	}
	if md.reference {
		md.m.LoadInput(in)
		md.runArch()
		return
	}
	md.runFast(in)
}

// runArch executes the architectural path to completion, forking a
// speculative excursion at each conditional branch when the contract's
// execution clause demands it.
func (md *Model) runArch() {
	steps := 0
	for !md.m.Done() && steps < MaxSteps {
		md.maybeExplore()
		md.trackUsage()
		md.m.Step()
		steps++
	}
	if !md.m.Done() {
		md.truncated++
	}
}

// maybeExplore forks execution down the mispredicted direction of the
// branch about to execute, bounded by the contract's speculative window and
// nesting depth. Observations made on the speculative path are part of the
// contract trace: the contract declares that leakage expected.
func (md *Model) maybeExplore() {
	if !md.C.SpecBranches || md.depth >= md.C.MaxNesting {
		return
	}
	in := md.m.CurInst()
	if in.Op != isa.OpBranch {
		return
	}
	taken := md.m.Flags.Eval(in.Cond)
	wrong := in.Target
	if taken {
		wrong = md.m.PCIdx + 1
	}
	md.m.Checkpoint()
	md.m.PCIdx = wrong
	md.depth++
	md.runSpec(md.C.SpecWindow)
	md.depth--
	md.m.Rollback()
}

// runSpec executes up to window instructions on a speculative path,
// recursively exploring nested mispredictions while depth remains.
func (md *Model) runSpec(window int) {
	for i := 0; i < window && !md.m.Done(); i++ {
		md.maybeExplore()
		md.m.Step()
	}
}

// trackUsage records register/memory liveness for the instruction about to
// execute, on the architectural path only.
func (md *Model) trackUsage() {
	if md.depth != 0 || !md.track {
		return
	}
	in := md.m.CurInst()
	readReg := func(r isa.Reg) {
		if md.written&(1<<uint(r)) == 0 {
			md.usage.LiveInRegs |= 1 << uint(r)
		}
	}
	switch {
	case in.Op == isa.OpMovImm:
		// no register sources
	case in.Op == isa.OpCmov:
		readReg(in.Src1)
		readReg(in.Dst) // CMOV may keep the old destination value
	case in.Op == isa.OpMov:
		readReg(in.Src1)
	case in.Op.IsALU():
		readReg(in.Src1)
		if !in.UseImm {
			readReg(in.Src2)
		}
	case in.Op == isa.OpLoad:
		readReg(in.Src1)
	case in.Op == isa.OpStore:
		readReg(in.Src1)
		readReg(in.Src2)
	}
	if in.Op.IsALU() && in.Op != isa.OpCmp {
		md.written |= 1 << uint(in.Dst)
	}
	if in.Op == isa.OpLoad {
		md.written |= 1 << uint(in.Dst)
	}
}

func (md *Model) onPC(pc uint64) {
	if md.C.ObservePC {
		md.trace = append(md.trace, Obs{Kind: ObsPC, V: pc})
	}
}

func (md *Model) onLoad(pc, addr uint64, size uint8, val uint64) {
	if md.C.ObserveMemAddr {
		md.trace = append(md.trace, Obs{Kind: ObsLoadAddr, V: addr})
	}
	if md.C.ObserveLoadVal {
		md.trace = append(md.trace, Obs{Kind: ObsLoadVal, V: val})
	}
	if md.depth == 0 && md.track {
		// Record every byte whose initial content the architectural load
		// consumed. Bytes already clobbered by an older store carry program
		// data, not input data.
		for k := uint8(0); k < size; k++ {
			off := (md.sb.ByteAddr(addr, k) - isa.DataBase) & md.sb.Mask()
			if !md.usage.isClobbered(off) {
				md.usage.markLoaded(off)
			}
		}
	}
}

func (md *Model) onStore(pc, addr uint64, size uint8, val uint64) {
	if md.C.ObserveMemAddr {
		md.trace = append(md.trace, Obs{Kind: ObsStoreAddr, V: addr})
	}
	if md.depth == 0 && md.track {
		for k := uint8(0); k < size; k++ {
			off := (md.sb.ByteAddr(addr, k) - isa.DataBase) & md.sb.Mask()
			md.usage.markClobbered(off)
		}
	}
}
