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
// likely direction (backward = taken, forward = not taken). If the walk
// returns to the head the trace is a closed loop and one dispatch runs
// many iterations. Adjacent instruction pairs with combinable semantics
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
//     predecoded slot, so the head compiles again.
//   - Accounting: dispatch requires budget >= one full pass, and side
//     exits retire fewer, so a trace can never run past an instruction
//     limit, Stop-poll chunk, or checkpoint boundary (the budget is
//     already clamped to all three).
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
	// out of line through traceDevice; imm2 holds its isa.Op. It is not a
	// fusion kind, so it sits past FusionKindNames.
	topDevice
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
// stale superblock installed. A dropped sentinel is not an invalidation:
// it was never a built trace.
func (m *Machine) invalidateTraces(first, last uint64) {
	for w, live := range m.traceLive {
		for ; live != 0; live &= live - 1 {
			i := w*64 + bits.TrailingZeros64(live)
			if t := m.traceTab[i]; first < t.hi && last > t.lo {
				m.traceTab[i] = nil
				m.traceLive[w] &^= 1 << (i % 64)
				if t.n != 0 {
					m.traceInvals++
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
		u := s.uops[(pc-s.base)>>2]
		return u, u.Op != isa.OpInvalid
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
			if u2, ok2 := peek(pc + 4); ok2 && (u2.Op == isa.OpBEQ || u2.Op == isa.OpBNE) &&
				u2.Rs1&31 == op.rd && u2.Rs2&31 == 0 {
				bt := pc + 4 + uint64(u2.Imm)
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
		if op.pc < t.lo {
			t.lo = op.pc
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

// runTrace executes the trace starting at t.head, repeating full passes
// while the trace closes on itself and the budget allows another one.
// It returns the next pc and the number of guest instructions retired.
// The caller guarantees budget >= t.n, so at least one pass (or a side
// exit short of one) always fits; retired never exceeds budget. A device
// error is returned with the state as of the access published, the op
// not retired.
func (m *Machine) runTrace(t *trace, regs *[32]uint64, mem *Memory, devLo, devSpan, predLo, predSpan, budget uint64) (uint64, uint64, error) {
	var retired uint64
	// Hoisted: the m.invalidateCode call below would otherwise force a
	// reload of every trace field on each pass (the compiler must assume
	// the method clobbers them; execution never mutates a trace).
	ops := t.ops
	tn, tnext, thead := t.n, t.next, t.head
	for retired+tn <= budget {
		for i := range ops {
			op := &ops[i]
			switch op.op {
			case topNop:
			case topJalLink, topAuipc, topLuiAddi:
				regs[op.rd] = op.target
			case topAddAdd:
				v := regs[op.rs1] + regs[op.rs2]
				regs[op.rd] = v
				regs[op.rd2] += v
			case topAddiAddi:
				v := regs[op.rs1] + uint64(op.imm)
				v2 := regs[op.rs2] + uint64(op.imm2)
				regs[op.rd] = v
				regs[op.rd2] = v2
			case topCmpBranch:
				var c uint64
				if op.imm2&1 != 0 {
					c = sltu(regs[op.rs1], regs[op.rs2])
				} else {
					c = slt(regs[op.rs1], regs[op.rs2])
				}
				regs[op.rd] = c
				if ((c != 0) == (op.imm2&2 != 0)) != op.expect {
					return m.guardExit(op, op.pc+4, retired)
				}
			case topAddiLd:
				a := regs[op.rs1] + uint64(op.imm)
				addr := a + uint64(op.imm2)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc+4, retired)
				}
				var v uint64
				if off := addr & (pageSize - 1); off <= pageSize-8 {
					if p := mem.lookup(addr); p != nil {
						v = binary.LittleEndian.Uint64(p[off:])
					}
				} else {
					v = mem.Read(addr, 8)
				}
				regs[op.rd] = a
				regs[op.rd2] = v
				regs[0] = 0
			case topAddiSd:
				a := regs[op.rs1] + uint64(op.imm)
				addr := a + uint64(op.imm2)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc+4, retired)
				}
				mem.store64(addr, regs[op.rs2])
				regs[op.rd] = a
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 8)
					return op.pc + 8, retired + uint64(op.cum), nil
				}
			case topDevice:
				addr := regs[op.rs1] + uint64(op.imm)
				before := retired + uint64(op.cum) - 1
				if addr-devLo >= devSpan {
					m.exitPC, m.exitKind = op.pc, exitRAM
					return op.pc, before, nil
				}
				if err := m.traceDevice(op, addr, before); err != nil {
					return op.pc, before, err
				}

			case isa.OpADD:
				regs[op.rd] = regs[op.rs1] + regs[op.rs2]
			case isa.OpSUB:
				regs[op.rd] = regs[op.rs1] - regs[op.rs2]
			case isa.OpSLL:
				regs[op.rd] = sll(regs[op.rs1], regs[op.rs2])
			case isa.OpSLT:
				regs[op.rd] = slt(regs[op.rs1], regs[op.rs2])
			case isa.OpSLTU:
				regs[op.rd] = sltu(regs[op.rs1], regs[op.rs2])
			case isa.OpXOR:
				regs[op.rd] = regs[op.rs1] ^ regs[op.rs2]
			case isa.OpSRL:
				regs[op.rd] = srl(regs[op.rs1], regs[op.rs2])
			case isa.OpSRA:
				regs[op.rd] = sra(regs[op.rs1], regs[op.rs2])
			case isa.OpOR:
				regs[op.rd] = regs[op.rs1] | regs[op.rs2]
			case isa.OpAND:
				regs[op.rd] = regs[op.rs1] & regs[op.rs2]
			case isa.OpMUL:
				regs[op.rd] = regs[op.rs1] * regs[op.rs2]
			case isa.OpMULH:
				regs[op.rd] = mulh(regs[op.rs1], regs[op.rs2])
			case isa.OpMULHU:
				regs[op.rd] = mulhu(regs[op.rs1], regs[op.rs2])
			case isa.OpDIV:
				regs[op.rd] = div(regs[op.rs1], regs[op.rs2])
			case isa.OpDIVU:
				regs[op.rd] = divu(regs[op.rs1], regs[op.rs2])
			case isa.OpREM:
				regs[op.rd] = rem(regs[op.rs1], regs[op.rs2])
			case isa.OpREMU:
				regs[op.rd] = remu(regs[op.rs1], regs[op.rs2])
			case isa.OpADDI:
				regs[op.rd] = regs[op.rs1] + uint64(op.imm)
			case isa.OpSLTI:
				regs[op.rd] = slt(regs[op.rs1], uint64(op.imm))
			case isa.OpSLTIU:
				regs[op.rd] = sltu(regs[op.rs1], uint64(op.imm))
			case isa.OpXORI:
				regs[op.rd] = regs[op.rs1] ^ uint64(op.imm)
			case isa.OpORI:
				regs[op.rd] = regs[op.rs1] | uint64(op.imm)
			case isa.OpANDI:
				regs[op.rd] = regs[op.rs1] & uint64(op.imm)
			case isa.OpSLLI:
				regs[op.rd] = sll(regs[op.rs1], uint64(op.imm))
			case isa.OpSRLI:
				regs[op.rd] = srl(regs[op.rs1], uint64(op.imm))
			case isa.OpSRAI:
				regs[op.rd] = sra(regs[op.rs1], uint64(op.imm))
			case isa.OpLUI:
				regs[op.rd] = uint64(op.imm)

			case isa.OpBEQ:
				if (regs[op.rs1] == regs[op.rs2]) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}
			case isa.OpBNE:
				if (regs[op.rs1] != regs[op.rs2]) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}
			case isa.OpBLT:
				if (int64(regs[op.rs1]) < int64(regs[op.rs2])) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}
			case isa.OpBGE:
				if (int64(regs[op.rs1]) >= int64(regs[op.rs2])) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}
			case isa.OpBLTU:
				if (regs[op.rs1] < regs[op.rs2]) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}
			case isa.OpBGEU:
				if (regs[op.rs1] >= regs[op.rs2]) != op.expect {
					return m.guardExit(op, op.pc, retired)
				}

			case isa.OpLD:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var rd uint64
				if off := addr & (pageSize - 1); off <= pageSize-8 {
					if p := mem.lookup(addr); p != nil {
						rd = binary.LittleEndian.Uint64(p[off:])
					}
				} else {
					rd = mem.Read(addr, 8)
				}
				regs[op.rd] = rd
				regs[0] = 0
			case isa.OpLW:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v uint32
				if off := addr & (pageSize - 1); off <= pageSize-4 {
					if p := mem.lookup(addr); p != nil {
						v = binary.LittleEndian.Uint32(p[off:])
					}
				} else {
					v = uint32(mem.Read(addr, 4))
				}
				regs[op.rd] = extendLoad(isa.OpLW, uint64(v))
				regs[0] = 0
			case isa.OpLWU:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v uint32
				if off := addr & (pageSize - 1); off <= pageSize-4 {
					if p := mem.lookup(addr); p != nil {
						v = binary.LittleEndian.Uint32(p[off:])
					}
				} else {
					v = uint32(mem.Read(addr, 4))
				}
				regs[op.rd] = uint64(v)
				regs[0] = 0
			case isa.OpLH:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v uint16
				if off := addr & (pageSize - 1); off <= pageSize-2 {
					if p := mem.lookup(addr); p != nil {
						v = binary.LittleEndian.Uint16(p[off:])
					}
				} else {
					v = uint16(mem.Read(addr, 2))
				}
				regs[op.rd] = extendLoad(isa.OpLH, uint64(v))
				regs[0] = 0
			case isa.OpLHU:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v uint16
				if off := addr & (pageSize - 1); off <= pageSize-2 {
					if p := mem.lookup(addr); p != nil {
						v = binary.LittleEndian.Uint16(p[off:])
					}
				} else {
					v = uint16(mem.Read(addr, 2))
				}
				regs[op.rd] = uint64(v)
				regs[0] = 0
			case isa.OpLB:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v byte
				if p := mem.lookup(addr); p != nil {
					v = p[addr&(pageSize-1)]
				}
				regs[op.rd] = extendLoad(isa.OpLB, uint64(v))
				regs[0] = 0
			case isa.OpLBU:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				var v byte
				if p := mem.lookup(addr); p != nil {
					v = p[addr&(pageSize-1)]
				}
				regs[op.rd] = uint64(v)
				regs[0] = 0

			case isa.OpSD:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				mem.store64(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 8)
					return op.pc + 4, retired + uint64(op.cum), nil
				}
			case isa.OpSW:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				mem.store32(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 4)
					return op.pc + 4, retired + uint64(op.cum), nil
				}
			case isa.OpSH:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				mem.store16(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 2)
					return op.pc + 4, retired + uint64(op.cum), nil
				}
			case isa.OpSB:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return m.deviceExit(op, op.pc, retired)
				}
				mem.store8(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 1)
					return op.pc + 4, retired + uint64(op.cum), nil
				}

			case isa.OpADDW:
				regs[op.rd] = addw(regs[op.rs1], regs[op.rs2])
			case isa.OpSUBW:
				regs[op.rd] = subw(regs[op.rs1], regs[op.rs2])
			case isa.OpSLLW:
				regs[op.rd] = sllw(regs[op.rs1], regs[op.rs2])
			case isa.OpSRLW:
				regs[op.rd] = srlw(regs[op.rs1], regs[op.rs2])
			case isa.OpSRAW:
				regs[op.rd] = sraw(regs[op.rs1], regs[op.rs2])
			case isa.OpADDIW:
				regs[op.rd] = addw(regs[op.rs1], uint64(op.imm))
			case isa.OpSLLIW:
				regs[op.rd] = sllw(regs[op.rs1], uint64(op.imm))
			case isa.OpSRLIW:
				regs[op.rd] = srlw(regs[op.rs1], uint64(op.imm))
			case isa.OpSRAIW:
				regs[op.rd] = sraw(regs[op.rs1], uint64(op.imm))
			case isa.OpMULW:
				regs[op.rd] = mulw(regs[op.rs1], regs[op.rs2])
			case isa.OpDIVW:
				regs[op.rd] = divw(regs[op.rs1], regs[op.rs2])
			case isa.OpDIVUW:
				regs[op.rd] = divuw(regs[op.rs1], regs[op.rs2])
			case isa.OpREMW:
				regs[op.rd] = remw(regs[op.rs1], regs[op.rs2])
			case isa.OpREMUW:
				regs[op.rd] = remuw(regs[op.rs1], regs[op.rs2])
			}
		}
		retired += tn
		if tnext != thead {
			return tnext, retired, nil
		}
	}
	return thead, retired, nil
}

// guardExit resolves a mispredicted guard on the branch at bpc: the
// branch itself retires, control resumes on the unexpected edge, and the
// direction seen is recorded as the last side exit.
func (m *Machine) guardExit(op *traceOp, bpc, retired uint64) (uint64, uint64, error) {
	m.exitPC = bpc
	if op.expect {
		m.exitKind = exitFallThrough
		return bpc + 4, retired + uint64(op.cum), nil
	}
	m.exitKind = exitTaken
	return op.target, retired + uint64(op.cum), nil
}

// deviceExit leaves before op, whose access at mpc found a device:
// nothing of op has retired, and the device access is recorded as the
// last side exit.
func (m *Machine) deviceExit(op *traceOp, mpc, retired uint64) (uint64, uint64, error) {
	m.exitPC, m.exitKind = mpc, exitDevice
	return op.pc, retired + uint64(op.cum) - uint64(op.n), nil
}

// traceDevice performs a topDevice op's access at addr, with before
// instructions of the current dispatch retired ahead of it, as a slow
// step would: PC, Instret and Now are published as of the access (the
// trace tier runs in functional time, one cycle per instruction, so Now
// moves with Instret), and the access goes through m.load/m.store. On an
// error that state stays published, as StepInto leaves it; otherwise the
// fast loop's unpublished values are put back.
func (m *Machine) traceDevice(op *traceOp, addr, before uint64) error {
	pc, instret, now := m.PC, m.Instret, m.Now
	done := m.traceDone + before
	m.PC, m.Instret, m.Now = op.pc, instret+done, now+done
	o := isa.Op(op.imm2)
	size := accessSize(o)
	if o.IsStore() {
		if _, _, err := m.store(addr, size, m.Regs[op.rs2]); err != nil {
			return err
		}
	} else {
		_, v, _, err := m.load(addr, size)
		if err != nil {
			return err
		}
		m.Regs[op.rd] = extendLoad(o, v)
		m.Regs[0] = 0
	}
	m.PC, m.Instret, m.Now = pc, instret, now
	return nil
}
