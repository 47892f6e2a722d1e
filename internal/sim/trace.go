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
// uops from the head, assuming every conditional branch goes its static
// likely direction (backward = taken, forward = not taken) and recording
// that assumption as the guard's expected outcome, following JALs, and
// stopping at the first indirect branch, environment instruction
// (ECALL/EBREAK/CSR), undecodable word, segment exit, or traceMaxOps.
// If the walk returns to the head the trace is a closed loop and one
// dispatch runs many iterations. Adjacent instruction pairs with
// combinable semantics are fused into single trace ops (macro-op
// fusion): lui+addi (link-time constant), addi+ld / addi+sd (address
// bump + access), slt[u]+beqz/bnez (compare-and-branch), add+add
// (compute + accumulate), addi+addi (independent induction bumps). A
// fused op retires both guest instructions but pays one dispatch.
//
// Safety invariants (the differential suite enforces all of these):
//   - Guards: a mispredicted branch exits the trace having retired
//     exactly the instructions up to and including the branch, with the
//     architecturally correct next pc. Re-entry goes through runFast.
//   - MMIO: loads/stores re-check the device range and exit *before*
//     executing the access (nothing from the op, fused or not, has
//     retired), so runFast re-executes it and routes to the slow path.
//   - Self-modifying code: traces record the [lo,hi) span of every word
//     they were compiled from; invalidateCode drops overlapping traces,
//     and an in-trace store that hits the code guard exits the trace
//     right after the store retires — even when it just invalidated the
//     trace it is running in.
//   - Accounting: dispatch requires budget >= one full pass, and side
//     exits retire fewer, so a trace can never run past an instruction
//     limit, Stop-poll chunk, or checkpoint boundary (the budget is
//     already clamped to all three).
//   - Checkpoints: the tables are pure caches over predecoded code.
//     LoadExecutable and RebuildCode reset them, so a restored run
//     re-detects hotness from scratch and stays bit-identical.
package sim

import (
	"encoding/binary"

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
)

// The synthetic opcode space starts at 0x80; the architectural space
// must stay below it (negative array length here if it ever grows past).
var _ [0x80 - int(isa.OpREMUW) - 1]struct{}

// hotEntry is one direct-mapped execution counter for a loop-head pc.
type hotEntry struct {
	pc    uint64
	count uint32
}

// traceOp is one step of a compiled superblock. Register fields are
// pre-masked to 5 bits at build time, and ops that architecturally
// write x0 are compiled to topNop, so the hot dispatch skips both the
// mask and the regs[0] re-zero that runFast pays per instruction.
type traceOp struct {
	pc     uint64 // guest pc of (the first instruction of) this op
	target uint64 // branch target, JAL link, or precomputed constant
	imm    int32
	imm2   int32  // fused second immediate, or topCmpBranch flags
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
	fusion uint32 // bit (op - topNop) set per synthetic op kind compiled in
	ops    []traceOp
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
	}
	e := &m.hotTab[(pc>>2)&(hotTabSize-1)]
	if e.pc != pc {
		e.pc, e.count = pc, 1
		return
	}
	e.count++
	if e.count < hotThreshold {
		return
	}
	e.count = 0
	t := m.compileTrace(pc)
	if t.n != 0 {
		m.tracesBuilt++
	}
	m.traceTab[(pc>>2)&(traceTabSize-1)] = t
}

// invalidateTraces drops every trace compiled from a word in [first,
// last). invalidateCode calls it before touching the uop arrays, so a
// store into code can never leave a stale superblock installed.
func (m *Machine) invalidateTraces(first, last uint64) {
	if m.traceTab == nil {
		return
	}
	for i, t := range m.traceTab {
		if t != nil && first < t.hi && last > t.lo {
			m.traceTab[i] = nil
			m.traceInvals++
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
}

// segFor returns the predecoded segment containing pc, if any.
func (m *Machine) segFor(pc uint64) *segCode {
	for i := range m.segs {
		s := &m.segs[i]
		if pc-s.base < s.limit-s.base {
			return s
		}
	}
	return nil
}

// compileTrace builds a superblock starting at head by walking the
// predecoded uops along the statically likely path. It always returns a
// trace; an uncompilable head yields a sentinel with n == 0.
func (m *Machine) compileTrace(head uint64) *trace {
	t := &trace{head: head, next: head, lo: head, hi: head + 4}
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
	pc := head
build:
	for {
		if len(t.ops) > 0 && pc == head {
			break // closed loop: a full pass re-enters the trace
		}
		if len(t.ops) >= traceMaxOps {
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
			switch {
			// addi rt, ra, i1 + ld rd, i2(rt) → fused address bump +
			// load. Both destinations written in architectural order,
			// so rd == rt stays correct.
			case ok2 && u2.Op == isa.OpLD && u2.Rs1&31 == op.rd:
				op.op = topAddiLd
				op.rd2 = u2.Rd & 31
				op.imm2 = u2.Imm
				op.n = 2
				flow = pc + 8
			// addi rt, ra, i1 + sd rs, i2(rt) → fused bump + store.
			// Skipped when rs == rt: the reference order reads the
			// store value after the bump writes it.
			case ok2 && u2.Op == isa.OpSD && u2.Rs1&31 == op.rd && u2.Rs2&31 != op.rd:
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
				op.expect = bt <= pc+4 // backward = likely taken
				op.n = 2
				if op.expect {
					flow = bt
				} else {
					flow = pc + 8
				}
			}
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			op.target = pc + uint64(u.Imm)
			op.expect = op.target <= pc // backward = likely taken
			if op.expect {
				flow = op.target
			} else {
				flow = pc + 4
			}
		default:
			// Plain ALU ops writing x0 are architectural nops. Loads
			// and stores always stay live (MMIO side effects).
			if op.rd == 0 && !u.Op.IsLoad() && !u.Op.IsStore() {
				op.op = topNop
			}
		}
		if op.pc < t.lo {
			t.lo = op.pc
		}
		if end := op.pc + 4*uint64(op.n); end > t.hi {
			t.hi = end
		}
		t.ops = append(t.ops, op)
		pc = flow
	}
	t.next = pc
	var cum uint16
	for i := range t.ops {
		cum += uint16(t.ops[i].n)
		t.ops[i].cum = cum
		if op := t.ops[i].op; op >= topNop {
			t.fusion |= 1 << (op - topNop)
		}
	}
	t.n = uint64(cum)
	return t
}

// runTrace executes the trace starting at t.head, repeating full passes
// while the trace closes on itself and the budget allows another one.
// It returns the next pc and the number of guest instructions retired.
// The caller guarantees budget >= t.n, so at least one pass (or a side
// exit short of one) always fits; retired never exceeds budget.
func (m *Machine) runTrace(t *trace, regs *[32]uint64, mem *Memory, devLo, devSpan, predLo, predSpan, budget uint64) (uint64, uint64) {
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
					retired += uint64(op.cum)
					if op.expect {
						return op.pc + 8, retired // predicted taken, fell through
					}
					return op.target, retired
				}
			case topAddiLd:
				a := regs[op.rs1] + uint64(op.imm)
				addr := a + uint64(op.imm2)
				if addr-devLo < devSpan {
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
				}
				mem.store64(addr, regs[op.rs2])
				regs[op.rd] = a
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 8)
					return op.pc + 8, retired + uint64(op.cum)
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
					return m.traceExit(op, retired)
				}
			case isa.OpBNE:
				if (regs[op.rs1] != regs[op.rs2]) != op.expect {
					return m.traceExit(op, retired)
				}
			case isa.OpBLT:
				if (int64(regs[op.rs1]) < int64(regs[op.rs2])) != op.expect {
					return m.traceExit(op, retired)
				}
			case isa.OpBGE:
				if (int64(regs[op.rs1]) >= int64(regs[op.rs2])) != op.expect {
					return m.traceExit(op, retired)
				}
			case isa.OpBLTU:
				if (regs[op.rs1] < regs[op.rs2]) != op.expect {
					return m.traceExit(op, retired)
				}
			case isa.OpBGEU:
				if (regs[op.rs1] >= regs[op.rs2]) != op.expect {
					return m.traceExit(op, retired)
				}

			case isa.OpLD:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
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
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
				}
				mem.store64(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 8)
					return op.pc + 4, retired + uint64(op.cum)
				}
			case isa.OpSW:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
				}
				mem.store32(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 4)
					return op.pc + 4, retired + uint64(op.cum)
				}
			case isa.OpSH:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
				}
				mem.store16(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 2)
					return op.pc + 4, retired + uint64(op.cum)
				}
			case isa.OpSB:
				addr := regs[op.rs1] + uint64(op.imm)
				if addr-devLo < devSpan {
					return op.pc, retired + uint64(op.cum) - uint64(op.n)
				}
				mem.store8(addr, regs[op.rs2])
				if addr-predLo < predSpan {
					m.invalidateCode(addr, 1)
					return op.pc + 4, retired + uint64(op.cum)
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
			return tnext, retired
		}
	}
	return thead, retired
}

// traceExit resolves a mispredicted plain-branch guard: the branch
// itself retires, and control resumes on the unexpected edge.
func (m *Machine) traceExit(op *traceOp, retired uint64) (uint64, uint64) {
	retired += uint64(op.cum)
	if op.expect {
		return op.pc + 4, retired // predicted taken, fell through
	}
	return op.target, retired
}
