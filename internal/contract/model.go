package contract

import (
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/emu"
	"github.com/sith-lab/amulet-go/internal/isa"
)

// Usage summarizes which parts of the input the contract trace can depend
// on: every byte and register that any path the model explores — the
// architectural one and, under a speculative execution clause, each
// mispredicted excursion — reads before it is defined. The input mutator
// uses it to randomize only state that cannot influence the contract trace
// (AMuLeT's contract-preserving input mutation): memory bytes never loaded
// and registers never read before being written are free to vary, and a
// mutant that keeps the rest has the base input's trace by construction.
//
// Byte-level tracking uses bitsets over the sandbox offset space (one bit
// per byte) instead of hash maps: the model marks bytes on every load and
// architectural store, and the mutator restores the marked bytes, so both
// sides of the hot loop are word operations. A test touches a few dozen
// bytes of a sandbox of up to 2 MB, so the bitsets are paged like the
// memory they describe (isa.Image): a page's bits exist only while a byte
// of that page is marked, and the marked pages are kept as a list.
// Membership and marking are O(1), and so is LoadedCount, a running count.
// CopyLoaded, the mutator's restore walk, visits only the bitset words
// holding a loaded bit, which are kept as a list too: O(loaded words), not
// O(pages touched × words per page). Reset clears each touched page's
// 1 KiB of bits: O(pages touched).
type Usage struct {
	// pages holds, per sandbox page, the bits of its bytes; nil: none marked.
	pages []*pageUse
	// touched lists the indices of the non-nil pages, in first-touch order.
	touched []uint32
	// loadedWords lists, once each and in first-load order, the bitset
	// words holding a loaded bit, by sandbox-wide index (offset/64).
	loadedWords []uint32
	// nLoaded counts the loaded bytes: the bits set over loadedWords.
	nLoaded int
	// spare holds cleared pages released by Reset, for the next input.
	spare []*pageUse
	// LiveInRegs is a bitmask of registers read on an explored path before
	// the architectural path wrote them; under a contract that observes the
	// initial register file, every register.
	LiveInRegs uint16
}

// pageUse is the usage of one sandbox page, one bit per byte.
type pageUse struct {
	// loaded marks offsets whose *initial* value a load on an explored path
	// may have read, i.e. offsets loaded before any architectural store
	// clobbered them. Offsets that the architectural path stores first and
	// only reads afterwards are not recorded: their initial content reaches
	// no explored path, which is exactly what makes them usable as
	// Spectre-v4 secrets. An excursion's own stores clobber nothing, since
	// they are rolled back, so a byte an excursion stores and then reloads
	// is marked: a sound over-approximation.
	loaded [pageWords]uint64
	// clobbered marks offsets overwritten by an architectural store.
	clobbered [pageWords]uint64
}

// pageWords is the number of bitset words per sandbox page.
const pageWords = isa.PageSize / 64

// word splits a sandbox offset into its page, its word within the page's
// bitsets, and its bit within the word.
func word(off uint64) (page, w uint64, bit uint64) {
	return off / isa.PageSize, off % isa.PageSize / 64, 1 << (off % 64)
}

// usageListCap is the starting capacity of a summary's page and word
// lists. A generated test marks at most a few dozen of each, so the lists
// are allocated once per summary instead of growing through every doubling
// in each new fuzzer workspace; Reset keeps their backing arrays.
const usageListCap = 64

// NewUsage returns an empty usage summary for sandbox sb.
func NewUsage(sb isa.Sandbox) *Usage {
	return &Usage{
		pages:       make([]*pageUse, sb.Pages),
		touched:     make([]uint32, 0, usageListCap),
		loadedWords: make([]uint32, 0, usageListCap),
	}
}

// Reset clears the summary for reuse across inputs.
func (u *Usage) Reset() {
	for _, pi := range u.touched {
		*u.pages[pi] = pageUse{}
		u.spare = append(u.spare, u.pages[pi])
		u.pages[pi] = nil
	}
	u.touched = u.touched[:0]
	u.loadedWords = u.loadedWords[:0]
	u.nLoaded = 0
	u.LiveInRegs = 0
}

// Loaded reports whether the initial byte at sandbox offset off may be
// consumed by a load on an explored path.
func (u *Usage) Loaded(off uint64) bool {
	pi, w, bit := word(off)
	p := u.pages[pi]
	return p != nil && p.loaded[w]&bit != 0
}

// LoadedCount returns the number of loaded bytes.
func (u *Usage) LoadedCount() int { return u.nLoaded }

// CopyLoaded copies the byte at every loaded offset from src to dst — the
// mutator's "restore the contract-visible bytes" step. It walks the list of
// bitset words holding a loaded bit and copies a memory word at a time, so
// only the words of dst that hold such a byte are materialized, and a word
// loaded whole is copied without computing dst's background for it.
func (u *Usage) CopyLoaded(dst, src *isa.Image) {
	for _, wi := range u.loadedWords {
		w := u.pages[wi/pageWords].loaded[wi%pageWords]
		for w != 0 {
			k := bits.TrailingZeros64(w) &^ 7 // first bit of the lowest loaded word
			m := w >> k & 0xff                // its loaded bytes
			w &^= 0xff << k
			va := isa.DataBase + uint64(wi)*64 + uint64(k)
			x := src.Read(va, 8)
			if m != 0xff {
				keep := ^byteMask(m)
				x = x&^keep | dst.Read(va, 8)&keep
			}
			dst.Write(va, 8, x)
		}
	}
}

// byteMask widens an 8-bit mask of a word's bytes to the 64-bit mask of
// their bits.
func byteMask(m uint64) uint64 {
	var x uint64
	for ; m != 0; m &= m - 1 {
		x |= 0xff << (8 * bits.TrailingZeros64(m))
	}
	return x
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
	lw := &u.page(pi).loaded[w]
	if *lw&bit != 0 {
		return
	}
	if *lw == 0 {
		u.loadedWords = append(u.loadedWords, uint32(off/64))
	}
	*lw |= bit
	u.nLoaded++
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
// functional emulator (emu.Machine) and builds contract traces from the
// emulator's hooks, forking CT-COND's mispredicted-path excursions on the
// machine's nested checkpoints. One Model is reusable across inputs of the
// same program (the emulator is reset per input), and across programs
// through Load.
type Model struct {
	C         Contract
	sb        isa.Sandbox
	m         *emu.Machine
	truncated int

	// per-run state
	trace   Trace
	usage   *Usage
	depth   int
	written uint16 // registers defined so far on the arch path
}

// MaxSteps bounds the architectural instruction count per test case. The
// generator emits DAG programs, so this is a defensive limit only.
const MaxSteps = 4096

// NewModel builds a leakage model for program p under contract c.
func NewModel(c Contract, p *isa.Program, sb isa.Sandbox) *Model {
	md := &Model{C: c, m: &emu.Machine{}}
	md.m.Hooks = emu.Hooks{
		OnPC:    md.onPC,
		OnLoad:  md.onLoad,
		OnStore: md.onStore,
	}
	md.Load(p, sb)
	return md
}

// Load retargets the model at program p in sandbox sb, as NewModel would
// build it, but keeping what it has already allocated: the emulator's memory
// image and checkpoint stack, the usage summary (and its spare pages) and
// the trace buffer. The image and the summary are rebuilt only when the
// sandbox geometry changes. The Usage returned by an earlier Collect is
// invalid afterwards.
func (md *Model) Load(p *isa.Program, sb isa.Sandbox) {
	md.sb = sb
	md.m.Load(p, sb)
	if md.usage == nil || len(md.usage.pages) != sb.Pages {
		md.usage = NewUsage(sb)
	}
	md.truncated = 0
}

// Truncated returns how many runs since NewModel or Load hit the MaxSteps budget
// before the program exited. Generated programs are DAGs, so a non-zero
// count means a malformed or adversarial program silently lost coverage;
// the fuzzer surfaces the count in its metrics rather than dropping it.
func (md *Model) Truncated() int { return md.truncated }

// Collect executes the test case (p, in) under the contract and returns the
// contract trace together with the usage summary of every path it explored.
// The Usage is a buffer owned by the model, reset and rewritten by the next
// Collect call; callers that need it longer (none do — the mutator reads it
// before the next input is collected) must copy it.
func (md *Model) Collect(in *isa.Input) (Trace, *Usage) {
	return md.CollectInto(in, nil)
}

// CollectInto is Collect with a caller-owned trace buffer: the returned
// trace is buf's backing array grown as needed, so a caller that recycles
// buffers (a fuzzer workspace's TracePool) collects traces without the
// per-input copy allocation Collect pays. Passing nil allocates fresh.
func (md *Model) CollectInto(in *isa.Input, buf Trace) (Trace, *Usage) {
	md.trace = md.trace[:0]
	md.usage.Reset()
	md.depth = 0
	md.written = 0

	if md.C.ObserveInitRegs {
		// The trace holds the whole initial register file.
		md.usage.LiveInRegs = 1<<isa.NumRegs - 1
		for _, v := range in.Regs {
			md.trace = append(md.trace, Obs{Kind: ObsInitReg, V: v})
		}
	}
	md.m.LoadInput(in)
	md.runArch()
	return append(buf[:0], md.trace...), md.usage
}

// runArch executes the architectural path to completion, forking a
// speculative excursion at each conditional branch when the contract's
// execution clause demands it.
func (md *Model) runArch() {
	steps := 0
	for !md.m.Done() && steps < MaxSteps {
		md.maybeExplore()
		md.trackRegs()
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
		md.trackRegs()
		md.m.Step()
	}
}

// trackRegs records the live-in registers the instruction about to execute
// reads, on every explored path: a source the architectural path has not
// written (before the branch, on an excursion) is live-in. Only
// architectural writes are definitions — an excursion's are rolled back —
// so a register an excursion writes and then reads is marked too.
func (md *Model) trackRegs() {
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
	if md.depth == 0 && (in.Op.IsALU() && in.Op != isa.OpCmp || in.Op == isa.OpLoad) {
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
	// Record every byte whose initial content the load may consume, on
	// every explored path. Bytes an older architectural store clobbered
	// carry program data, not input data.
	for k := uint8(0); k < size; k++ {
		off := (md.sb.ByteAddr(addr, k) - isa.DataBase) & md.sb.Mask()
		if !md.usage.isClobbered(off) {
			md.usage.markLoaded(off)
		}
	}
}

func (md *Model) onStore(pc, addr uint64, size uint8, val uint64) {
	if md.C.ObserveMemAddr {
		md.trace = append(md.trace, Obs{Kind: ObsStoreAddr, V: addr})
	}
	if md.depth == 0 {
		for k := uint8(0); k < size; k++ {
			off := (md.sb.ByteAddr(addr, k) - isa.DataBase) & md.sb.Mask()
			md.usage.markClobbered(off)
		}
	}
}
