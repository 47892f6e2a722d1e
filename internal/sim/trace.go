// Trace compilation: the speed tier above the predecoded fast loop.
//
// runFast pays a fetch (bounds check + slice index), a dispatch (one
// switch), and a budget decrement per instruction. For loop-dominated
// guests nearly every retired instruction sits on a small set of hot
// paths, so that per-instruction overhead is almost entirely redundant:
// the same instructions dispatch in the same order millions of times.
// The trace compiler removes it by stitching the dominant path from a
// hot loop head into a superblock — a single-entry sequence of trace ops
// executed straight-line, with a guard at every side exit — and letting
// runFast dispatch the whole trace as one unit.
//
// Formation. runFast counts executions of backward-branch targets (the
// classic loop-head heuristic) in a small direct-mapped table; at
// hotThreshold the head is compiled. Compilation walks the predecoded
// uops from the head, following JALs, and stopping at the first indirect
// branch, environment instruction (ECALL/EBREAK/CSR), undecodable word,
// segment exit, or traceMaxOps. Each conditional branch becomes a guard
// expecting the direction the guest was last seen to take there (see
// Yield below), or, for a branch never seen to exit a trace, its static
// likely direction (backward = taken, forward = not taken). A hammock — a
// branch to pc+8 over one plain ALU op writing a register — is
// if-converted instead: a skip op and then its body, and the trace goes on
// at the join whichever way the branch goes. If the walk returns to the
// head the trace is a closed loop and one dispatch runs many iterations.
// Adjacent instruction pairs with combinable semantics
// are fused into single trace ops (macro-op fusion): lui+addi (link-time
// constant), addi+ld / addi+sd (address bump + access), slt[u]+beqz/bnez
// (compare-and-branch), add+add (compute + accumulate), addi+addi
// (independent induction bumps). A fused op retires both guest
// instructions but pays one dispatch.
//
// Yield. A trace pays only if its dispatches retire enough instructions
// to amortize them. runFast counts each trace's dispatches and what they
// retire; every traceWindow dispatches a trace that retired fewer than
// traceMinYield instructions per dispatch is dropped. Its last side exit
// is learned in a direct-mapped table keyed by the exiting op's pc — a
// guard's observed direction, or a load/store that found a device — and
// the head recompiles with it. After traceMaxRecompiles recompiles the
// head gets the n == 0 sentinel and runs on the plain fast loop. The rule
// judges yield, not the side-exit rate: a trace that exits every pass
// but retires a long prefix first still pays.
//
// Execution. runPasses runs the passes in a loop with no call in it, so
// Go keeps the loop's state in registers; it leaves, naming the op, for a
// side exit and for whatever needs a call (a soft-TLB miss, a straddling
// access, the first store to a clean page, a store into the code guard, a
// device op), and runTrace performs that op and re-enters at the next.
//
// Safety invariants (the differential suite enforces all of these):
//   - Guards: a mispredicted branch exits the trace having retired
//     exactly the instructions up to and including the branch, with the
//     architecturally correct next pc. Re-entry goes through runFast.
//   - MMIO: a RAM load/store re-checks the device range and exits
//     *before* executing the access (nothing from the op, fused or not,
//     has retired), so runFast re-executes it and routes to the slow
//     path. An op learned to hit a device compiles to one out-of-line
//     device op instead: it publishes PC, Instret and Now as of the
//     access, as StepInto shows a device, goes through m.load/m.store,
//     and resumes the trace. On a RAM address it exits before the op; a
//     device error is returned with that state published, exactly as a
//     slow step leaves it.
//   - Self-modifying code: traces record the [lo,hi) span of every word
//     they were compiled from; invalidateCode drops overlapping traces
//     (scanning only the installed slots), and an in-trace store that
//     hits the code guard exits the trace right after the store retires —
//     even when it just invalidated the trace it is running in. The
//     next fetch of the rewritten word decodes it back into its
//     predecoded slot, and so does compilation; the dropped trace's head
//     is re-armed, so its next arrival compiles the rewritten code.
//   - Accounting: dispatch requires budget >= one full pass, and side
//     exits retire fewer, so a trace can never run past an instruction
//     limit, Stop-poll chunk, or checkpoint boundary (the budget is
//     already clamped to all three). A pass that skips hammock bodies
//     retires t.n less the bodies skipped, and so does each side exit in
//     it: t.n is the most a pass can retire.
//   - Checkpoints: the tables are pure caches over predecoded code.
//     LoadExecutable and RebuildCode reset them, so a restored run
//     re-learns hotness, directions and device ops from scratch and
//     stays bit-identical.
package sim

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"firemarshal/internal/isa"
)

const (
	// hotTabSize/traceTabSize are direct-mapped table sizes (powers of
	// two). Collisions only cost re-detection, never correctness.
	hotTabSize   = 512
	traceTabSize = 512
	// hotThreshold is how many times a backward-branch target executes
	// before it is compiled. Low enough that short benches still spend
	// almost all retirements in traces, high enough that one-shot
	// backward jumps (function epilogues) never pay compilation.
	hotThreshold = 16
	// traceMaxOps caps superblock length in trace ops (a fused pair is
	// one op), bounding compile time and mispredict cost.
	traceMaxOps = 64
	// learnTabSize is the size of the direct-mapped table of side exits
	// learned from dropped traces (power of two).
	learnTabSize = 512
	// The yield rule (see Yield above): every traceWindow dispatches, a
	// trace that retired fewer than traceMinYield instructions per
	// dispatch is dropped and its head recompiled, at most
	// traceMaxRecompiles times. Chosen from the benchmark's ten shapes and
	// four mixes at 3 M instructions, traced against the fast loop: 8 is
	// where a dispatch starts to pay (call_heavy's 4.5 and divide's 3.4
	// instructions per dispatch lost to the fast loop, branchy's 13 won);
	// 32 dispatches judge a trace within a few hundred instructions of its
	// compile; 3 recompiles learn the mmio loop's two device ops and the
	// smc loop's guard, and stop a head whose exits keep moving.
	traceWindow        = 32
	traceMinYield      = 8
	traceMaxRecompiles = 3
)

// Synthetic trace-only opcodes, placed above the architectural isa.Op
// space so one switch dispatches both plain and fused/specialized ops.
const (
	topNop isa.Op = 0x80 + iota
	// topJalLink is JAL with rd != 0: write the precomputed link
	// address; flow to the jump target is implicit in op order.
	topJalLink
	// topAuipc writes a precomputed pc-relative constant.
	topAuipc
	// topLuiAddi is lui rd, hi + addi rd, rd, lo: one constant write.
	topLuiAddi
	// topAddiLd is addi rt, ra, i1 + ld rd, i2(rt): address bump + load.
	topAddiLd
	// topAddiSd is addi rt, ra, i1 + sd rs, i2(rt): address bump + store.
	topAddiSd
	// topCmpBranch is slt/sltu rd + beqz/bnez rd: compare, write rd,
	// and guard in one op. imm2 bit 0 = unsigned, bit 1 = branch-on-nonzero.
	topCmpBranch
	// topAddAdd is add rd, rs1, rs2 + add rd2, rd2, rd: compute and
	// fold into an accumulator in one op.
	topAddAdd
	// topAddiAddi is two independent addis: rd = rs1 + imm and
	// rd2 = rs2 + imm2, where the second does not read the first's rd.
	topAddiAddi
	// topDevice is a load or store learned to hit a device, performed
	// out of line by runTrace; imm2 holds its isa.Op. It is not a
	// fusion kind, so it sits past FusionKindNames.
	topDevice
	// topSkip is a hammock's branch: taken, it skips the next op, its
	// body, and the trace goes on at the join either way. imm2 holds the
	// branch's isa.Op. Not a fusion kind either.
	topSkip
)

// The synthetic opcode space starts at 0x80; the architectural space
// must stay below it (negative array length here if it ever grows past).
var _ [0x80 - int(isa.OpREMUW) - 1]struct{}

// hotEntry is one direct-mapped execution counter for a loop-head pc,
// and how often the yield rule has recompiled that head.
type hotEntry struct {
	pc         uint64
	count      uint32
	recompiles uint8
}

// What a trace's side exit teaches about the op at its pc.
const (
	exitNone        uint8 = iota
	exitTaken             // a guard's branch was taken
	exitFallThrough       // a guard's branch fell through
	exitDevice            // a RAM load/store found a device
	exitRAM               // a device op found RAM
)

// learnEntry is one direct-mapped learned side exit.
type learnEntry struct {
	pc   uint64
	kind uint8
}

// traceOp is one step of a compiled superblock. Register fields are
// pre-masked to 5 bits at build time, and ops that architecturally
// write x0 are compiled to topNop, so the hot dispatch skips both the
// mask and the regs[0] re-zero that runFast pays per instruction.
type traceOp struct {
	pc     uint64 // guest pc of (the first instruction of) this op
	target uint64 // branch target, JAL link, or precomputed constant
	imm    int32
	imm2   int32  // fused second immediate, topCmpBranch flags, or topDevice's op
	cum    uint16 // guest instructions retired through this op in a pass
	op     isa.Op
	rd     uint8
	rs1    uint8
	rs2    uint8
	rd2    uint8 // destination of the fused second instruction
	n      uint8 // guest instructions this op retires (1, or 2 fused)
	expect bool  // guards: the branch outcome the trace assumes
}

// trace is one compiled superblock.
type trace struct {
	head   uint64 // entry pc (the hot backward-branch target)
	next   uint64 // pc after a full pass; == head for a closed loop
	lo, hi uint64 // [lo, hi) span of every guest word compiled in
	n      uint64 // guest instructions retired by one full pass; 0 = uncompilable sentinel
	fusion uint32 // bit (op - topNop) set per fusion kind compiled in
	ops    []traceOp
	// dispatches and yield count the current window's dispatches and the
	// instructions they retired.
	dispatches uint32
	yield      uint64
}

// FusionKindNames names the synthetic trace-op kinds, indexed by the bit
// position used in TraceFusionKinds (bit i ↔ synthetic op topNop+i).
var FusionKindNames = [...]string{
	"nop", "jal-link", "auipc", "lui+addi", "addi+ld",
	"addi+sd", "cmp+branch", "add+add", "addi+addi",
}

// TraceFusionKinds returns the accumulated bitmask of synthetic trace-op
// kinds that appeared in a dispatched superblock this machine lifetime;
// bit i corresponds to FusionKindNames[i]. The verification farm's
// coverage model reads it to steer workload generation toward fusion
// kinds the corpus has not yet exercised.
func (m *Machine) TraceFusionKinds() uint32 { return m.fusionSeen }

// TraceStats returns the machine-lifetime trace-cache counters: traces
// compiled, superblock dispatches, invalidations, and instructions
// retired inside traces.
func (m *Machine) TraceStats() (built, hits, invals, traceInstrs uint64) {
	return m.tracesBuilt, m.traceHits, m.traceInvals, m.traceInstrs
}

// lookupTrace returns the compiled trace entered at pc, if any.
func (m *Machine) lookupTrace(pc uint64) *trace {
	if m.traceTab == nil {
		return nil
	}
	if t := m.traceTab[(pc>>2)&(traceTabSize-1)]; t != nil && t.head == pc {
		return t
	}
	return nil
}

// noteHot bumps the execution count of a backward-branch target and
// compiles it into the trace table once it crosses hotThreshold. Heads
// that cannot be compiled install a sentinel (n == 0) so they stop
// paying the counter; a table collision simply evicts.
func (m *Machine) noteHot(pc uint64) {
	if m.hotTab == nil {
		m.hotTab = new([hotTabSize]hotEntry)
		m.traceTab = new([traceTabSize]*trace)
		m.learnTab = new([learnTabSize]learnEntry)
	}
	e := &m.hotTab[(pc>>2)&(hotTabSize-1)]
	if e.pc != pc {
		*e = hotEntry{pc: pc, count: 1}
		return
	}
	e.count++
	if e.count < hotThreshold {
		return
	}
	e.count = 0
	m.installTrace(m.compileTrace(pc))
}

// installTrace puts t in its head's slot, evicting whatever was there,
// and marks the slot installed. Compiled traces count as built;
// sentinels do not.
func (m *Machine) installTrace(t *trace) {
	i := (t.head >> 2) & (traceTabSize - 1)
	if t.n != 0 {
		m.tracesBuilt++
	}
	m.traceTab[i] = t
	m.traceLive[i/64] |= 1 << (i % 64)
}

// judgeTrace closes t's yield window, right after t's last dispatch. A
// trace whose dispatches retired fewer than traceMinYield instructions
// each is dropped: the last side exit is learned — for a trace that keeps
// exiting, its own; any other is still what the guest last did at that
// pc — and its head is recompiled with it, or, once the head has been
// recompiled traceMaxRecompiles times, gets the sentinel.
func (m *Machine) judgeTrace(t *trace) {
	poor := t.yield < traceMinYield*traceWindow
	t.dispatches, t.yield = 0, 0
	if !poor || m.traceTab[(t.head>>2)&(traceTabSize-1)] != t {
		return // paying, or a store into its code already dropped it
	}
	if m.exitKind != exitNone {
		m.learnTab[(m.exitPC>>2)&(learnTabSize-1)] = learnEntry{pc: m.exitPC, kind: m.exitKind}
	}
	e := &m.hotTab[(t.head>>2)&(hotTabSize-1)]
	if e.pc != t.head {
		*e = hotEntry{pc: t.head}
	}
	if e.recompiles == traceMaxRecompiles {
		m.installTrace(sentinel(t.head))
		return
	}
	e.recompiles++
	m.installTrace(m.compileTrace(t.head))
}

// learned returns what a dropped trace's side exit taught about the op
// at pc, or exitNone.
func (m *Machine) learned(pc uint64) uint8 {
	if e := &m.learnTab[(pc>>2)&(learnTabSize-1)]; e.pc == pc {
		return e.kind
	}
	return exitNone
}

// invalidateTraces drops every trace compiled from a word in [first,
// last), scanning only the installed slots. invalidateCode calls it
// before touching the uop arrays, so a store into code can never leave a
// stale superblock installed. A dropped built trace counts as an
// invalidation and re-arms its head: the head's hot entry is primed so
// its next arrival compiles the rewritten code at once, instead of after
// hotThreshold more. A dropped sentinel is neither: it was never a built
// trace.
func (m *Machine) invalidateTraces(first, last uint64) {
	for w, live := range m.traceLive {
		for ; live != 0; live &= live - 1 {
			i := w*64 + bits.TrailingZeros64(live)
			if t := m.traceTab[i]; first < t.hi && last > t.lo {
				m.traceTab[i] = nil
				m.traceLive[w] &^= 1 << (i % 64)
				if t.n != 0 {
					m.traceInvals++
					e := &m.hotTab[(t.head>>2)&(hotTabSize-1)]
					if e.pc != t.head {
						*e = hotEntry{pc: t.head}
					}
					e.count = hotThreshold - 1
				}
			}
		}
	}
}

// resetTraces discards all trace-compiler state. Called wherever the
// predecoded caches are rebuilt (executable load, checkpoint restore):
// the tables are pure caches, so dropping them never changes semantics,
// and a restored run re-detects hotness exactly like a fresh one.
func (m *Machine) resetTraces() {
	m.hotTab = nil
	m.traceTab = nil
	m.learnTab = nil
	m.traceLive = [traceTabSize / 64]uint64{}
	m.exitKind = exitNone
}

// sentinel returns the n == 0 trace installed at a head that is not
// worth compiling, so it stops paying the hotness counter.
func sentinel(head uint64) *trace {
	return &trace{head: head, next: head, lo: head, hi: head + 4}
}

// compileTrace builds a superblock starting at head by walking the
// predecoded uops along the learned, else statically likely, path. It
// always returns a trace; an uncompilable head yields a sentinel.
func (m *Machine) compileTrace(head uint64) *trace {
	t := sentinel(head)
	s := m.segFor(head)
	if s == nil || head&3 != 0 {
		return t
	}
	peek := func(pc uint64) (uop, bool) {
		if pc&3 != 0 || pc-s.base >= s.limit-s.base {
			return uop{}, false
		}
		i := (pc - s.base) >> 2
		// A word a store emptied is decoded back into its slot, as its next
		// fetch would (fetchSlow), so a re-armed head compiles the rewritten
		// code. Only inside the decoded range: there a decode cannot widen
		// the code guard runFast holds.
		if s.uops[i].Op == isa.OpInvalid && pc-m.codeMin < m.codeMax-m.codeMin {
			m.predecode(s, i, uint32(m.Mem.Read(pc, 4)))
		}
		u := s.uops[i]
		return u, u.Op != isa.OpInvalid
	}
	// hammock reports whether the branch at bpc, whose target is t, jumps
	// over exactly one plain ALU op writing a register (not the head, so a
	// closed loop stays closed): its body, returned.
	hammock := func(bpc, t uint64) (uop, bool) {
		if t != bpc+8 || bpc+4 == head {
			return uop{}, false
		}
		b, ok := peek(bpc + 4)
		f := b.Op.Format()
		return b, ok && b.Rd&31 != 0 &&
			(f == isa.FmtR || f == isa.FmtI || f == isa.FmtShift || b.Op == isa.OpLUI)
	}
	// expect is the direction a guard at branch pc bpc with target bt
	// assumes: the one learned from a side exit there, else the static
	// guess (backward = taken).
	expect := func(bpc, bt uint64) bool {
		switch m.learned(bpc) {
		case exitTaken:
			return true
		case exitFallThrough:
			return false
		}
		return bt <= bpc
	}
	// The ops are built on the stack and copied out once at their final
	// length: a loop whose code is rewritten recompiles on every rewrite.
	var buf [traceMaxOps]traceOp
	ops := buf[:0]
	pc := head
build:
	for {
		if len(ops) > 0 && pc == head {
			break // closed loop: a full pass re-enters the trace
		}
		if len(ops) >= traceMaxOps {
			break
		}
		u, ok := peek(pc)
		if !ok {
			break // undecodable word or left the segment
		}
		op := traceOp{
			op: u.Op, pc: pc, imm: u.Imm, n: 1,
			rd: u.Rd & 31, rs1: u.Rs1 & 31, rs2: u.Rs2 & 31,
		}
		flow := pc + 4
		switch u.Op {
		case isa.OpJALR, isa.OpECALL, isa.OpEBREAK, isa.OpCSRRS, isa.OpCSRRW:
			// Indirect flow and environment instructions end the
			// superblock; runFast/slowpath handles them at t.next.
			break build
		case isa.OpFENCE:
			op.op = topNop
		case isa.OpJAL:
			dest := pc + uint64(u.Imm)
			if op.rd == 0 {
				op.op = topNop
			} else {
				op.op = topJalLink
				op.target = pc + 4
			}
			flow = dest
		case isa.OpAUIPC:
			if op.rd == 0 {
				op.op = topNop
			} else {
				op.op = topAuipc
				op.target = pc + uint64(u.Imm)
			}
		case isa.OpLUI:
			if op.rd == 0 {
				op.op = topNop
				break
			}
			// lui rd, hi + addi rd, rd, lo → one constant write.
			if u2, ok2 := peek(pc + 4); ok2 && u2.Op == isa.OpADDI &&
				u2.Rd&31 == op.rd && u2.Rs1&31 == op.rd {
				op.op = topLuiAddi
				op.target = uint64(u.Imm) + uint64(u2.Imm)
				op.n = 2
				flow = pc + 8
			}
		case isa.OpADDI:
			if op.rd == 0 {
				op.op = topNop // addi x0 (canonical nop)
				break
			}
			u2, ok2 := peek(pc + 4)
			// An access learned to hit a device stays a device op.
			ram := ok2 && m.learned(pc+4) != exitDevice
			switch {
			// addi rt, ra, i1 + ld rd, i2(rt) → fused address bump +
			// load. Both destinations written in architectural order,
			// so rd == rt stays correct.
			case ram && u2.Op == isa.OpLD && u2.Rs1&31 == op.rd:
				op.op = topAddiLd
				op.rd2 = u2.Rd & 31
				op.imm2 = u2.Imm
				op.n = 2
				flow = pc + 8
			// addi rt, ra, i1 + sd rs, i2(rt) → fused bump + store.
			// Skipped when rs == rt: the reference order reads the
			// store value after the bump writes it.
			case ram && u2.Op == isa.OpSD && u2.Rs1&31 == op.rd && u2.Rs2&31 != op.rd:
				op.op = topAddiSd
				op.rs2 = u2.Rs2 & 31
				op.imm2 = u2.Imm
				op.n = 2
				flow = pc + 8
			// addi + addi with independent sources → two induction
			// bumps in one op. The second must not read the first's rd;
			// rd == rd2 stays correct because rd2 is written last.
			case ok2 && u2.Op == isa.OpADDI && u2.Rd&31 != 0 && u2.Rs1&31 != op.rd:
				op.op = topAddiAddi
				op.rd2 = u2.Rd & 31
				op.rs2 = u2.Rs1 & 31
				op.imm2 = u2.Imm
				op.n = 2
				flow = pc + 8
			}
		case isa.OpADD:
			if op.rd == 0 {
				op.op = topNop
				break
			}
			// add rd, rs1, rs2 + add racc, racc, rd (either operand
			// order) → compute and accumulate. racc == rd stays correct:
			// the accumulate reads rd's fresh value, as in program order.
			if u2, ok2 := peek(pc + 4); ok2 && u2.Op == isa.OpADD && u2.Rd&31 != 0 &&
				((u2.Rs1&31 == u2.Rd&31 && u2.Rs2&31 == op.rd) ||
					(u2.Rs2&31 == u2.Rd&31 && u2.Rs1&31 == op.rd)) {
				op.op = topAddAdd
				op.rd2 = u2.Rd & 31
				op.n = 2
				flow = pc + 8
			}
		case isa.OpSLT, isa.OpSLTU:
			if op.rd == 0 {
				op.op = topNop
				break
			}
			// slt[u] rd + beqz/bnez rd → compare-and-branch. rd is
			// still written (architecturally visible) before the guard.
			// A hammock's branch stays alone (see below).
			if u2, ok2 := peek(pc + 4); ok2 && (u2.Op == isa.OpBEQ || u2.Op == isa.OpBNE) &&
				u2.Rs1&31 == op.rd && u2.Rs2&31 == 0 {
				bt := pc + 4 + uint64(u2.Imm)
				if _, ok := hammock(pc+4, bt); ok {
					break
				}
				var flags int32
				if u.Op == isa.OpSLTU {
					flags |= 1
				}
				if u2.Op == isa.OpBNE {
					flags |= 2
				}
				op.op = topCmpBranch
				op.imm2 = flags
				op.target = bt
				op.expect = expect(pc+4, bt)
				op.n = 2
				if op.expect {
					flow = bt
				} else {
					flow = pc + 8
				}
			}
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			op.target = pc + uint64(u.Imm)
			// A hammock (a forward branch over one ALU op) is if-converted:
			// a skip op and then its body, each alone, and the trace goes
			// on at the join with no guard, whichever way the branch goes.
			if b, ok := hammock(pc, op.target); ok && len(ops)+2 <= traceMaxOps {
				op.op = topSkip
				op.imm2 = int32(u.Op)
				ops = append(ops, op)
				op = traceOp{
					op: b.Op, pc: pc + 4, imm: b.Imm, n: 1,
					rd: b.Rd & 31, rs1: b.Rs1 & 31, rs2: b.Rs2 & 31,
				}
				flow = pc + 8
				break
			}
			op.expect = expect(pc, op.target)
			if op.expect {
				flow = op.target
			} else {
				flow = pc + 4
			}
		case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU,
			isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
			// Loads and stores always stay live (MMIO side effects).
			if m.learned(pc) == exitDevice {
				op.op = topDevice
				op.imm2 = int32(u.Op)
			}
		default:
			// Plain ALU ops writing x0 are architectural nops.
			if op.rd == 0 {
				op.op = topNop
			}
		}
		if pc < t.lo {
			t.lo = pc
		}
		if end := op.pc + 4*uint64(op.n); end > t.hi {
			t.hi = end
		}
		ops = append(ops, op)
		pc = flow
	}
	t.next = pc
	var cum uint16
	for i := range ops {
		cum += uint16(ops[i].n)
		ops[i].cum = cum
		if op := ops[i].op; op >= topNop && op < topDevice {
			t.fusion |= 1 << (op - topNop)
		}
	}
	t.n = uint64(cum)
	t.ops = slices.Clone(ops)
	return t
}

// Why runPasses left the pass loop. Every reason but passEnd names the op
// the loop stopped at, none of which has executed.
const (
	// passEnd: the dispatch is done, after one pass of an open trace or as
	// many passes of a closed one as the budget holds.
	passEnd uint8 = iota
	// passGuard: the op's guard saw the other direction.
	passGuard
	// passDevice: the op's RAM load or store found a device.
	passDevice
	// passCall: the op is a load or store that needs a call: it missed the
	// soft TLB, straddles a page, is the first store to a clean page, or
	// stores into the code guard.
	passCall
	// passDeviceOp: the op is a device op, its address in p.addr.
	passDeviceOp
	// passRAM: the op is a device op whose address is RAM.
	passRAM
)

// pass is one dispatch's state, shared by runTrace and runPasses, so a
// re-entry after an op performed out of line costs a return, a call and a
// few loads.
type pass struct {
	ops              []traceOp
	regs             *[32]uint64
	mem              *Memory
	devLo, devSpan   uint64
	predLo, predSpan uint64
	// tn is the trace's t.n, the most one pass retires. A further pass
	// starts only while base <= room; room is 0 for an open trace, whose
	// one pass always retires at least one instruction.
	tn, room uint64
	// base is what the dispatch retired before the current pass, less the
	// hammock bodies skipped in it so far: through op i the dispatch has
	// retired base + ops[i].cum. (A skip may take it below zero mid-pass;
	// the sums are exact modulo 2^64.)
	base uint64
	// addr is a device op's address, when runPasses leaves for one.
	addr uint64
}

// runTrace executes the trace starting at t.head, repeating full passes
// while the trace closes on itself and the budget allows another one.
// It returns the next pc and the number of guest instructions retired.
// The caller guarantees budget >= t.n, so at least one pass (or a side
// exit short of one) always fits; retired never exceeds budget. A device
// error is returned with the state as of the access published, the op
// not retired.
//
// The passes themselves run in runPasses, which has no call in it. This
// loop performs each op runPasses leaves for with the general helpers and
// re-enters at the next op, or ends the dispatch at a side exit.
func (m *Machine) runTrace(t *trace, regs *[32]uint64, mem *Memory, devLo, devSpan, predLo, predSpan, budget uint64) (uint64, uint64, error) {
	p := pass{
		ops: t.ops, regs: regs, mem: mem,
		devLo: devLo, devSpan: devSpan, predLo: predLo, predSpan: predSpan,
		tn: t.n, room: budget - t.n,
	}
	if t.next != t.head {
		p.room = 0
	}
	for i := 0; ; i++ {
		var why uint8
		if i, why = runPasses(&p, i); why == passEnd {
			return t.next, p.base, nil
		}
		op := &p.ops[i]
		// done counts the dispatch's instructions through op.
		done := p.base + uint64(op.cum)
		switch why {
		case passDeviceOp:
			// The access, as a slow step makes it: PC, Instret and Now
			// published as of it (functional time: Now moves with
			// Instret), through m.load/m.store. An error leaves that state
			// published, as StepInto does; otherwise the fast loop's
			// unpublished values go back. It is written here, not called:
			// a device op already costs a return from runPasses and a call
			// back into it.
			pc, instret, now := m.PC, m.Instret, m.Now
			before := m.traceDone + done - 1
			m.PC, m.Instret, m.Now = op.pc, instret+before, now+before
			o := isa.Op(op.imm2)
			size := accessSize(o)
			if o.IsStore() {
				if _, _, err := m.store(p.addr, size, regs[op.rs2&31]); err != nil {
					return op.pc, done - 1, err
				}
			} else {
				_, v, _, err := m.load(p.addr, size)
				if err != nil {
					return op.pc, done - 1, err
				}
				regs[op.rd&31] = extendLoad(o, v)
				regs[0] = 0
			}
			m.PC, m.Instret, m.Now = pc, instret, now
		case passRAM:
			// A device op found RAM: leave before it.
			m.exitPC, m.exitKind = op.pc, exitRAM
			return op.pc, done - 1, nil
		case passCall:
			if store, addr, size := op.access(regs, mem); store && addr-predLo < predSpan {
				// A store into decoded code retires, then leaves.
				m.invalidateCode(addr, size)
				return op.pc + 4*uint64(op.n), done, nil
			}
		case passGuard:
			return m.guardExit(op, op.pc+4*uint64(op.n-1)), done, nil
		default:
			// A RAM access found a device: leave before op, none of it
			// retired. The access is op's last instruction.
			m.exitPC, m.exitKind = op.pc+4*uint64(op.n-1), exitDevice
			return op.pc, done - uint64(op.n), nil
		}
	}
}

// runPasses runs p's passes from op i until the dispatch ends or an op
// needs what the loop does not do, and returns that op's index and the
// reason (see passEnd). It contains no call, so Go keeps its loop state in
// registers: a RAM access is taken only on the soft-TLB hit the call-free
// loadHit and storeHit see, a store only on a dirty page outside the code
// guard, and register indexes are masked so they need no bounds check.
// scripts/check.sh fails if a call appears in it.
func runPasses(p *pass, i int) (int, uint8) {
	// Only what every op or every pass uses is copied into locals: the
	// rest is read through p where it is used, which costs what a reload
	// from a spill slot would and spares each entry the spill.
	ops, regs, mem := p.ops, p.regs, p.mem
	base := p.base
	var why uint8
	for {
		for ; uint(i) < uint(len(ops)); i++ {
			op := &ops[i]
			switch op.op {
			case topNop:
			case topJalLink, topAuipc, topLuiAddi:
				regs[op.rd&31] = op.target
			case topAddAdd:
				v := regs[op.rs1&31] + regs[op.rs2&31]
				regs[op.rd&31] = v
				regs[op.rd2&31] += v
			case topAddiAddi:
				v := regs[op.rs1&31] + uint64(op.imm)
				v2 := regs[op.rs2&31] + uint64(op.imm2)
				regs[op.rd&31] = v
				regs[op.rd2&31] = v2
			case topCmpBranch:
				var c uint64
				if op.imm2&1 != 0 {
					c = sltu(regs[op.rs1&31], regs[op.rs2&31])
				} else {
					c = slt(regs[op.rs1&31], regs[op.rs2&31])
				}
				regs[op.rd&31] = c
				if ((c != 0) == (op.imm2&2 != 0)) != op.expect {
					why = passGuard
					goto leave
				}
			case topSkip:
				// A taken hammock branch skips its body, the next op.
				if taken(isa.Op(op.imm2), regs[op.rs1&31], regs[op.rs2&31]) {
					i++
					base--
				}
			case topAddiLd:
				a := regs[op.rs1&31] + uint64(op.imm)
				addr := a + uint64(op.imm2)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-8 {
					why = passCall
					goto leave
				}
				v := binary.LittleEndian.Uint64(pg[off:])
				regs[op.rd&31] = a
				regs[op.rd2&31] = v
				regs[0] = 0
			case topAddiSd:
				a := regs[op.rs1&31] + uint64(op.imm)
				addr := a + uint64(op.imm2)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				// Tested on its own: folded into the test below, it
				// leaves one value too many live and gives runPasses a
				// stack frame.
				if addr-p.predLo < p.predSpan {
					why = passCall
					goto leave
				}
				off := addr & (pageSize - 1)
				pg := mem.storeHit(addr)
				if pg == nil || off > pageSize-8 {
					why = passCall
					goto leave
				}
				binary.LittleEndian.PutUint64(pg[off:], regs[op.rs2&31])
				regs[op.rd&31] = a
			case topDevice:
				p.addr = regs[op.rs1&31] + uint64(op.imm)
				why = passDeviceOp
				if p.addr-p.devLo >= p.devSpan {
					why = passRAM
				}
				goto leave

			case isa.OpADD:
				regs[op.rd&31] = regs[op.rs1&31] + regs[op.rs2&31]
			case isa.OpSUB:
				regs[op.rd&31] = regs[op.rs1&31] - regs[op.rs2&31]
			case isa.OpSLL:
				regs[op.rd&31] = sll(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSLT:
				regs[op.rd&31] = slt(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSLTU:
				regs[op.rd&31] = sltu(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpXOR:
				regs[op.rd&31] = regs[op.rs1&31] ^ regs[op.rs2&31]
			case isa.OpSRL:
				regs[op.rd&31] = srl(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSRA:
				regs[op.rd&31] = sra(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpOR:
				regs[op.rd&31] = regs[op.rs1&31] | regs[op.rs2&31]
			case isa.OpAND:
				regs[op.rd&31] = regs[op.rs1&31] & regs[op.rs2&31]
			case isa.OpMUL:
				regs[op.rd&31] = regs[op.rs1&31] * regs[op.rs2&31]
			case isa.OpMULH:
				regs[op.rd&31] = mulh(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpMULHU:
				regs[op.rd&31] = mulhu(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpDIV:
				regs[op.rd&31] = div(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpDIVU:
				regs[op.rd&31] = divu(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpREM:
				regs[op.rd&31] = rem(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpREMU:
				regs[op.rd&31] = remu(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpADDI:
				regs[op.rd&31] = regs[op.rs1&31] + uint64(op.imm)
			case isa.OpSLTI:
				regs[op.rd&31] = slt(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSLTIU:
				regs[op.rd&31] = sltu(regs[op.rs1&31], uint64(op.imm))
			case isa.OpXORI:
				regs[op.rd&31] = regs[op.rs1&31] ^ uint64(op.imm)
			case isa.OpORI:
				regs[op.rd&31] = regs[op.rs1&31] | uint64(op.imm)
			case isa.OpANDI:
				regs[op.rd&31] = regs[op.rs1&31] & uint64(op.imm)
			case isa.OpSLLI:
				regs[op.rd&31] = sll(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSRLI:
				regs[op.rd&31] = srl(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSRAI:
				regs[op.rd&31] = sra(regs[op.rs1&31], uint64(op.imm))
			case isa.OpLUI:
				regs[op.rd&31] = uint64(op.imm)

			case isa.OpBEQ:
				if (regs[op.rs1&31] == regs[op.rs2&31]) != op.expect {
					why = passGuard
					goto leave
				}
			case isa.OpBNE:
				if (regs[op.rs1&31] != regs[op.rs2&31]) != op.expect {
					why = passGuard
					goto leave
				}
			case isa.OpBLT:
				if (int64(regs[op.rs1&31]) < int64(regs[op.rs2&31])) != op.expect {
					why = passGuard
					goto leave
				}
			case isa.OpBGE:
				if (int64(regs[op.rs1&31]) >= int64(regs[op.rs2&31])) != op.expect {
					why = passGuard
					goto leave
				}
			case isa.OpBLTU:
				if (regs[op.rs1&31] < regs[op.rs2&31]) != op.expect {
					why = passGuard
					goto leave
				}
			case isa.OpBGEU:
				if (regs[op.rs1&31] >= regs[op.rs2&31]) != op.expect {
					why = passGuard
					goto leave
				}

			// A load or store leaves for runTrace unless it is a RAM access
			// on a soft-TLB hit within one page (a store: a dirty page
			// outside the code guard).
			case isa.OpLD:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-8 {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = binary.LittleEndian.Uint64(pg[off:])
				regs[0] = 0
			case isa.OpLW:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-4 {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = extendLoad(isa.OpLW, uint64(binary.LittleEndian.Uint32(pg[off:])))
				regs[0] = 0
			case isa.OpLWU:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-4 {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = uint64(binary.LittleEndian.Uint32(pg[off:]))
				regs[0] = 0
			case isa.OpLH:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-2 {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = extendLoad(isa.OpLH, uint64(binary.LittleEndian.Uint16(pg[off:])))
				regs[0] = 0
			case isa.OpLHU:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg, hit := mem.loadHit(addr)
				if !hit || off > pageSize-2 {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = uint64(binary.LittleEndian.Uint16(pg[off:]))
				regs[0] = 0
			case isa.OpLB:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				pg, hit := mem.loadHit(addr)
				if !hit {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = extendLoad(isa.OpLB, uint64(pg[addr&(pageSize-1)]))
				regs[0] = 0
			case isa.OpLBU:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				pg, hit := mem.loadHit(addr)
				if !hit {
					why = passCall
					goto leave
				}
				regs[op.rd&31] = uint64(pg[addr&(pageSize-1)])
				regs[0] = 0

			case isa.OpSD:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg := mem.storeHit(addr)
				if pg == nil || off > pageSize-8 || addr-p.predLo < p.predSpan {
					why = passCall
					goto leave
				}
				binary.LittleEndian.PutUint64(pg[off:], regs[op.rs2&31])
			case isa.OpSW:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg := mem.storeHit(addr)
				if pg == nil || off > pageSize-4 || addr-p.predLo < p.predSpan {
					why = passCall
					goto leave
				}
				binary.LittleEndian.PutUint32(pg[off:], uint32(regs[op.rs2&31]))
			case isa.OpSH:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				off := addr & (pageSize - 1)
				pg := mem.storeHit(addr)
				if pg == nil || off > pageSize-2 || addr-p.predLo < p.predSpan {
					why = passCall
					goto leave
				}
				binary.LittleEndian.PutUint16(pg[off:], uint16(regs[op.rs2&31]))
			case isa.OpSB:
				addr := regs[op.rs1&31] + uint64(op.imm)
				if addr-p.devLo < p.devSpan {
					why = passDevice
					goto leave
				}
				pg := mem.storeHit(addr)
				if pg == nil || addr-p.predLo < p.predSpan {
					why = passCall
					goto leave
				}
				pg[addr&(pageSize-1)] = byte(regs[op.rs2&31])

			case isa.OpADDW:
				regs[op.rd&31] = addw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSUBW:
				regs[op.rd&31] = subw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSLLW:
				regs[op.rd&31] = sllw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSRLW:
				regs[op.rd&31] = srlw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpSRAW:
				regs[op.rd&31] = sraw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpADDIW:
				regs[op.rd&31] = addw(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSLLIW:
				regs[op.rd&31] = sllw(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSRLIW:
				regs[op.rd&31] = srlw(regs[op.rs1&31], uint64(op.imm))
			case isa.OpSRAIW:
				regs[op.rd&31] = sraw(regs[op.rs1&31], uint64(op.imm))
			case isa.OpMULW:
				regs[op.rd&31] = mulw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpDIVW:
				regs[op.rd&31] = divw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpDIVUW:
				regs[op.rd&31] = divuw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpREMW:
				regs[op.rd&31] = remw(regs[op.rs1&31], regs[op.rs2&31])
			case isa.OpREMUW:
				regs[op.rd&31] = remuw(regs[op.rs1&31], regs[op.rs2&31])
			}
		}
		base += p.tn
		if base > p.room {
			break // passEnd
		}
		i = 0
	}
leave:
	p.base = base
	return i, why
}

// taken reports whether the conditional branch o goes to its target on
// operands a and b.
func taken(o isa.Op, a, b uint64) bool {
	switch o {
	case isa.OpBEQ:
		return a == b
	case isa.OpBNE:
		return a != b
	case isa.OpBLT:
		return int64(a) < int64(b)
	case isa.OpBGE:
		return int64(a) >= int64(b)
	case isa.OpBLTU:
		return a < b
	}
	return a >= b
}

// access performs op, a RAM load or store runPasses left for, through the
// general memory helpers: a TLB miss refills, an unmapped page reads as
// zero or is allocated, a page-straddling access goes bytewise, and a
// store marks its page dirty. It returns whether op stored, and where.
func (op *traceOp) access(regs *[32]uint64, mem *Memory) (store bool, addr uint64, size int) {
	addr = regs[op.rs1&31] + uint64(op.imm)
	o, dst := op.op, op.rd
	switch o {
	case topAddiLd:
		o, dst = isa.OpLD, op.rd2
		regs[op.rd&31] = addr
		addr += uint64(op.imm2)
	case topAddiSd:
		o = isa.OpSD
		regs[op.rd&31] = addr
		addr += uint64(op.imm2)
	}
	size = accessSize(o)
	if o.IsStore() {
		mem.Write(addr, size, regs[op.rs2&31])
		return true, addr, size
	}
	regs[dst&31] = extendLoad(o, mem.Read(addr, size))
	regs[0] = 0
	return false, addr, size
}

// guardExit resolves a mispredicted guard on the branch at bpc: control
// resumes on the unexpected edge, and the direction seen is recorded as
// the last side exit.
func (m *Machine) guardExit(op *traceOp, bpc uint64) uint64 {
	m.exitPC = bpc
	if op.expect {
		m.exitKind = exitFallThrough
		return bpc + 4
	}
	m.exitKind = exitTaken
	return op.target
}
