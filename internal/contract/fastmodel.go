package contract

import (
	"fmt"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// Specialized contract emulator.
//
// The reference leakage-model path runs every test case through the generic
// functional emulator (emu.Machine): per instruction it pays the Step call,
// a nil check plus closure call for each installed hook, the EvalALU switch,
// and the Model's trackUsage switch with its readReg closure. A campaign
// collects contract traces for every base input and re-collects one for
// every candidate mutant, so those per-instruction constants are a fixed tax
// on the whole generation side.
//
// The specialized path removes them with two moves:
//
//   - Predecoding. NewModel lowers the program once into a micro-op table:
//     the ALU operation is pre-resolved to a dedicated kind (no EvalALU
//     switch at run time), the immediate-vs-register second operand is
//     pre-selected, and the per-instruction source/destination register sets
//     are precomputed as bitmasks, collapsing trackUsage's switch into two
//     word operations.
//   - One flat interpreter. runFast executes the micro-ops in a single
//     function that owns the registers, flags, memory image and trace buffer
//     as locals: observations append inline under pre-hoisted contract
//     booleans (no hook closures, no nil checks), and speculative excursions
//     (CT-COND's execution clause) run on an explicit checkpoint stack with
//     a store-undo journal instead of recursing through Machine
//     checkpoints.
//
// The two paths are bit-identical — same observation sequence, same usage
// summary, same truncation accounting — which TestFastModelEquivalence
// cross-checks on random programs. The reference path stays in the package
// as that test's oracle; no configuration selects it.
//
// Flag semantics are not restated here: the per-kind cases call
// isa.ArithFlags/isa.LogicFlags, the same helpers EvalALU uses, and the
// result expressions mirror exec.go case by case.

// uopKind is a predecoded operation kind: ALU operations resolved to one
// kind each, everything else lowered to its execution shape.
type uopKind uint8

const (
	uNop    uopKind = iota // NOP and FENCE: no architectural effect
	uMovImm                // Dst = imm
	uMov                   // Dst = Src1
	uAdd
	uSub
	uAnd
	uOr
	uXor
	uShl
	uShr
	uMul
	uCmp
	uCmov
	uLoad
	uStore
	uJmp
	uBranch
)

// uop is one predecoded micro-op. The immediate is stored pre-converted to
// the uint64 the wrap arithmetic consumes; srcMask/dstMask are the register
// sets trackUsage would derive from the opcode switch.
type uop struct {
	kind    uopKind
	dst     uint8
	src1    uint8
	src2    uint8
	size    uint8 // LD/ST access size
	useImm  bool  // ALU second operand is imm
	cond    isa.Cond
	srcMask uint16 // registers read (before any write) by this instruction
	dstMask uint16 // registers defined by this instruction
	imm     uint64 // ALU operand / LD/ST displacement, pre-converted
	target  int32  // B/JMP destination index
}

// predecode lowers prog into the micro-op table. It panics on an opcode the
// emulator would also panic on, at build time rather than mid-run.
func predecode(prog *isa.Program) []uop {
	uops := make([]uop, prog.Len())
	for i, in := range prog.Insts {
		u := &uops[i]
		u.dst = uint8(in.Dst)
		u.src1 = uint8(in.Src1)
		u.src2 = uint8(in.Src2)
		u.size = in.Size
		u.useImm = in.UseImm
		u.cond = in.Cond
		u.imm = uint64(in.Imm)
		u.target = int32(in.Target)
		switch in.Op {
		case isa.OpNop, isa.OpFence:
			u.kind = uNop
		case isa.OpMovImm:
			u.kind = uMovImm
		case isa.OpMov:
			u.kind = uMov
		case isa.OpAdd:
			u.kind = uAdd
		case isa.OpSub:
			u.kind = uSub
		case isa.OpAnd:
			u.kind = uAnd
		case isa.OpOr:
			u.kind = uOr
		case isa.OpXor:
			u.kind = uXor
		case isa.OpShl:
			u.kind = uShl
		case isa.OpShr:
			u.kind = uShr
		case isa.OpMul:
			u.kind = uMul
		case isa.OpCmp:
			u.kind = uCmp
		case isa.OpCmov:
			u.kind = uCmov
		case isa.OpLoad:
			u.kind = uLoad
		case isa.OpStore:
			u.kind = uStore
		case isa.OpJmp:
			u.kind = uJmp
		case isa.OpBranch:
			u.kind = uBranch
		default:
			panic(fmt.Sprintf("contract: unhandled opcode %v", in.Op))
		}
		u.srcMask, u.dstMask = usageMasks(in)
	}
	return uops
}

// usageMasks returns the register sets Model.trackUsage reads and defines
// for instruction in, as bitmasks: srcMask are the registers consumed before
// any write, dstMask the registers defined. The cases mirror trackUsage.
func usageMasks(in isa.Inst) (srcMask, dstMask uint16) {
	switch {
	case in.Op == isa.OpMovImm:
		// no register sources
	case in.Op == isa.OpCmov:
		srcMask = 1<<uint(in.Src1) | 1<<uint(in.Dst) // CMOV may keep old Dst
	case in.Op == isa.OpMov:
		srcMask = 1 << uint(in.Src1)
	case in.Op.IsALU():
		srcMask = 1 << uint(in.Src1)
		if !in.UseImm {
			srcMask |= 1 << uint(in.Src2)
		}
	case in.Op == isa.OpLoad:
		srcMask = 1 << uint(in.Src1)
	case in.Op == isa.OpStore:
		srcMask = 1<<uint(in.Src1) | 1<<uint(in.Src2)
	}
	if (in.Op.IsALU() && in.Op != isa.OpCmp) || in.Op == isa.OpLoad {
		dstMask = 1 << uint(in.Dst)
	}
	return srcMask, dstMask
}

// specFrame is one entry of the explicit speculation stack: the checkpoint
// taken when a mispredicted branch path is forked, plus what the fork
// suspended — the branch's index (executed for real after the rollback) and
// the enclosing level's remaining step budget.
type specFrame struct {
	regs     [isa.NumRegs]uint64
	flags    isa.Flags
	branch   int // index of the forked branch
	window   int // enclosing level's remaining budget
	journLen int
}

// memUndo is one journaled store: the bytes the store overwrote, restored on
// rollback. Offsets are sandbox offsets (wrap already applied).
type memUndo struct {
	off  uint64
	size uint8
	old  uint64
}

// runFast is the specialized interpreter: the whole contract-trace
// collection for one input in one flat loop. It mirrors runArch +
// maybeExplore + runSpec + the hook bodies exactly; see the file comment for
// the equivalence argument.
func (md *Model) runFast(in *isa.Input) {
	m := md.m
	m.LoadInput(in) // reuse the machine's register/memory containers
	regs := &m.Regs
	var flags isa.Flags
	mem := m.Mem
	mask := md.sb.Mask()
	uops := md.uops
	plen := len(uops)
	tr := md.trace

	// Contract and mode, hoisted out of the loop.
	obsPC := md.C.ObservePC
	obsAddr := md.C.ObserveMemAddr
	obsVal := md.C.ObserveLoadVal
	spec := md.C.SpecBranches
	maxNest := md.C.MaxNesting
	specWin := md.C.SpecWindow
	track := md.track

	md.frames = md.frames[:0]
	md.journal = md.journal[:0]
	var live, written uint16
	pc, depth, steps, window := 0, 0, 0, 0

	for {
		if depth == 0 {
			if pc >= plen {
				break
			}
			if steps >= MaxSteps {
				md.truncated++
				break
			}
		} else if window <= 0 || pc >= plen {
			// Excursion over: roll back to the fork point and execute the
			// branch for real, on the enclosing level's budget. The branch
			// must not fork again, so it runs here rather than rejoining the
			// loop body.
			f := &md.frames[len(md.frames)-1]
			for i := len(md.journal) - 1; i >= f.journLen; i-- {
				u := md.journal[i]
				mem.Write(isa.DataBase+u.off, u.size, u.old)
			}
			md.journal = md.journal[:f.journLen]
			*regs = f.regs
			flags = f.flags
			pc = f.branch
			window = f.window
			md.frames = md.frames[:len(md.frames)-1]
			depth--

			u := &uops[pc]
			if obsPC {
				tr = append(tr, Obs{Kind: ObsPC, V: isa.PCOf(pc)})
			}
			if flags.Eval(u.cond) {
				pc = int(u.target)
			} else {
				pc++
			}
			if depth == 0 {
				steps++
			} else {
				window--
			}
			continue
		}

		u := &uops[pc]
		if u.kind == uBranch && spec && depth < maxNest {
			// Fork down the mispredicted direction before the branch
			// executes (and before its PC observation): the excursion's
			// observations precede the branch's own, as in the reference.
			md.frames = append(md.frames, specFrame{
				regs:     *regs,
				flags:    flags,
				branch:   pc,
				window:   window,
				journLen: len(md.journal),
			})
			if flags.Eval(u.cond) {
				pc++ // mispredicted not-taken
			} else {
				pc = int(u.target) // mispredicted taken
			}
			depth++
			window = specWin
			continue
		}

		if obsPC {
			tr = append(tr, Obs{Kind: ObsPC, V: isa.PCOf(pc)})
		}
		if track && depth == 0 {
			live |= u.srcMask &^ written
			written |= u.dstMask
		}

		next := pc + 1
		switch u.kind {
		case uNop:
			// no architectural effect
		case uMovImm:
			regs[u.dst] = u.imm
		case uMov:
			regs[u.dst] = regs[u.src1]
		case uAdd:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a + b
			flags = isa.ArithFlags(r, r < a)
			regs[u.dst] = r
		case uSub:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a - b
			flags = isa.ArithFlags(r, a < b)
			regs[u.dst] = r
		case uAnd:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a & b
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uOr:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a | b
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uXor:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a ^ b
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uShl:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a << (b & 63)
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uShr:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a >> (b & 63)
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uMul:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			r := a * b
			flags = isa.LogicFlags(r)
			regs[u.dst] = r
		case uCmp:
			a, b := regs[u.src1], u.imm
			if !u.useImm {
				b = regs[u.src2]
			}
			flags = isa.ArithFlags(a-b, a < b)
		case uCmov:
			if flags.Eval(u.cond) {
				regs[u.dst] = regs[u.src1]
			}
		case uLoad:
			off := (regs[u.src1] + u.imm) & mask
			val := mem.Read(isa.DataBase+off, u.size)
			regs[u.dst] = val
			if obsAddr {
				tr = append(tr, Obs{Kind: ObsLoadAddr, V: isa.DataBase + off})
			}
			if obsVal {
				tr = append(tr, Obs{Kind: ObsLoadVal, V: val})
			}
			if track && depth == 0 {
				for k := uint64(0); k < uint64(u.size); k++ {
					o := (off + k) & mask
					if !md.usage.isClobbered(o) {
						md.usage.markLoaded(o)
					}
				}
			}
		case uStore:
			off := (regs[u.src1] + u.imm) & mask
			val := regs[u.src2]
			if depth > 0 {
				md.journal = append(md.journal, memUndo{off: off, size: u.size, old: mem.Read(isa.DataBase+off, u.size)})
			}
			mem.Write(isa.DataBase+off, u.size, val)
			if obsAddr {
				tr = append(tr, Obs{Kind: ObsStoreAddr, V: isa.DataBase + off})
			}
			if track && depth == 0 {
				for k := uint64(0); k < uint64(u.size); k++ {
					md.usage.markClobbered((off + k) & mask)
				}
			}
		case uJmp:
			next = int(u.target)
		case uBranch:
			// Non-forking: nesting limit reached, or the contract's
			// execution clause is empty.
			if flags.Eval(u.cond) {
				next = int(u.target)
			}
		}
		pc = next
		if depth == 0 {
			steps++
		} else {
			window--
		}
	}

	md.trace = tr
	if track {
		md.usage.LiveInRegs = live
	}
}
