// Fast execution paths through the machine.
//
// runFast is the functional simulator's hot loop: a dense switch over
// predecoded, pre-split instructions with architectural state held in
// locals, the soft-TLB fast path inlined for RAM loads (a store is one
// call to its width's helper), and a one-comparison device-range
// pre-check. Anything the inline cases do not cover — syscalls, CSR reads,
// MMIO, traps, segment switches — is executed by the reference StepInto,
// one instruction at a time, and the value rules come from semantics.go,
// so the tricky semantics exist in exactly one place. The differential
// tests in diff_test.go lock runFast ≡ RunReference on snapshots, console
// bytes, and retired-instruction counts.
//
// RunBatch is the loop under every timed or observed run: it retires
// instructions through StepInto (which shares the predecoded fetch path
// and soft TLB), charging the caller's timing model with each Event as it
// retires, with the per-batch bookkeeping amortized across the batch.
package sim

import (
	"encoding/binary"

	"firemarshal/internal/isa"
)

// stopPollChunk is how many instructions the fast loop retires between
// polls of the Stop channel — about 3ms of guest time at ~300 sim-MIPS,
// so cancellation latency stays imperceptible while the poll cost
// vanishes into the chunk.
const stopPollChunk = 1 << 20

// RunBatch executes up to max instructions and is the one loop that steps
// the reference path: RunTimed drives it for every StepInto-based run
// (reference, cycle-approximate, cycle-exact, the farm's event feed).
// After each instruction the timing model is charged: m.Now += charge(ev).
// The Event is reused from one instruction to the next, so charge must not
// retain it. A nil charge advances Now by one per instruction (functional
// time). It returns the number of instructions retired; execution stops
// early when the machine halts or on error. Because events are produced
// and charged in exactly the order an unbatched loop would, cycle counts
// are bit-identical to per-step simulation; max only bounds how long the
// caller goes without polling Stop.
func (m *Machine) RunBatch(max uint64, charge func(*Event) uint64) (uint64, error) {
	// Metrics land once per batch: the deferred flush publishes this
	// batch's retired/cycle delta to the attached shards (nil = two
	// compares), keeping the per-instruction loop untouched.
	defer m.flushObs()
	if err := m.syncDevices(); err != nil {
		return 0, err
	}
	// Checkpoint integration: fire a boundary left pending by the caller,
	// then clamp the batch so it ends exactly on the next boundary. The
	// batched loops therefore snapshot at the same retired-instruction
	// counts the fast path does.
	if err := m.maybeCheckpoint(); err != nil {
		return 0, err
	}
	if d := m.ckptDist(); d < max {
		max = d
	}
	ev := &m.batchEv
	n := uint64(0)
	for n < max && !m.Halted {
		if err := m.StepInto(ev); err != nil {
			return n, err
		}
		n++
		if charge != nil {
			m.Now += charge(ev)
		} else {
			m.Now++
		}
	}
	if err := m.maybeCheckpoint(); err != nil {
		return n, err
	}
	return n, nil
}

// chunkBudget returns how many instructions the fast loop may retire
// before it must surface: what is left of limit, clamped twice. With a
// kill switch installed the budget counts down in chunks so the channel is
// polled every stopPollChunk instructions; without one (the common case)
// it spans the whole run. Checkpointing rides the same mechanism: clamping
// to the boundary distance makes the loop surface at exact multiples of
// CkptEvery, where maybeCheckpoint fires with state published. Zero means
// the limit is reached.
func (m *Machine) chunkBudget(limit uint64) uint64 {
	if limit <= m.Instret {
		return 0
	}
	b := limit - m.Instret
	if m.Stop != nil && b > stopPollChunk {
		b = stopPollChunk
	}
	if d := m.ckptDist(); b > d {
		b = d
	}
	return b
}

// runFast executes until the machine halts, advancing functional time (one
// cycle per instruction). Callers must ensure no hooks, trace writer, or
// tamper function are installed; devices are fine (MMIO takes the slow
// path).
func (m *Machine) runFast() error {
	if m.Halted {
		return nil
	}
	// Final metrics flush on every exit path; the chunk boundary below
	// flushes mid-run so a live scrape sees progress. Both are deltas, so
	// together they count each instruction exactly once.
	defer m.flushObs()
	if err := m.syncDevices(); err != nil {
		return err
	}
	mem := m.Mem
	regs := &m.Regs
	pc := m.PC
	limit := ^uint64(0)
	if m.MaxInstrs > 0 {
		limit = m.MaxInstrs
	}
	devLo, devSpan := m.devLo, m.devHi-m.devLo
	predLo, predSpan := m.predLo, m.predHi-m.predLo
	traceOff := m.TraceOff

	// Declared out of the loop so goto slowpath never jumps over a
	// declaration in scope at the label. The current segment's fields are
	// hoisted into locals (re-hoisted after every slow step) so the fetch
	// is an offset check and a slice index with no pointer chasing.
	//
	// Instead of bumping Instret and Now per instruction, the loop counts
	// a single budget down from the instruction limit; the retired count
	// is reconstructed whenever state is published at slowpath. Functional
	// time advances one cycle per instruction, so Now moves in lockstep.
	var (
		in       uop
		next     uint64
		ev       Event
		segBase  uint64
		segUops  []uop
		budget0  uint64
		budget   uint64
		consumed uint64
	)
	if s := m.curSeg; s != nil {
		segBase, segUops = s.base, s.uops
	}
	if err := m.maybeCheckpoint(); err != nil {
		return err
	}
	budget0 = m.chunkBudget(limit)
	budget = budget0

	for {
		if budget == 0 {
			// The chunk is spent. Publish its retired instructions, fire a
			// checkpoint if this is a boundary, then either poll Stop and
			// refill (chunk boundary) or take the slow path so StepInto
			// raises the instruction-limit trap.
			m.PC = pc
			m.Instret += budget0
			m.Now += budget0
			m.flushObs()
			if err := m.maybeCheckpoint(); err != nil {
				return err
			}
			budget0 = m.chunkBudget(limit)
			if budget0 == 0 {
				goto slowpath // consumed is now zero; StepInto raises the limit trap
			}
			if m.Interrupted() {
				return ErrStopped
			}
			budget = budget0
			continue
		}
		{
			idx := pc - segBase
			if idx&3 != 0 || idx>>2 >= uint64(len(segUops)) {
				goto slowpath // segment switch or misaligned PC
			}
			in = segUops[idx>>2]
		}
		next = pc + 4

		switch in.Op {
		case isa.OpADD:
			rd := regs[in.Rs1&31] + regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSUB:
			rd := regs[in.Rs1&31] - regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLL:
			rd := sll(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLT:
			rd := slt(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTU:
			rd := sltu(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpXOR:
			rd := regs[in.Rs1&31] ^ regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRL:
			rd := srl(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRA:
			rd := sra(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpOR:
			rd := regs[in.Rs1&31] | regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpAND:
			rd := regs[in.Rs1&31] & regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMUL:
			rd := regs[in.Rs1&31] * regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULH:
			rd := mulh(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULHU:
			rd := mulhu(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIV:
			rd := div(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVU:
			rd := divu(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREM:
			rd := rem(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMU:
			rd := remu(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpADDI:
			rd := regs[in.Rs1&31] + uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTI:
			rd := slt(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTIU:
			rd := sltu(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpXORI:
			rd := regs[in.Rs1&31] ^ uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpORI:
			rd := regs[in.Rs1&31] | uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpANDI:
			rd := regs[in.Rs1&31] & uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLI:
			rd := sll(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLI:
			rd := srl(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAI:
			rd := sra(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpLUI:
			regs[in.Rd&31] = uint64(in.Imm)
			regs[0] = 0
		case isa.OpAUIPC:
			regs[in.Rd&31] = pc + uint64(in.Imm)
			regs[0] = 0
		case isa.OpJAL:
			regs[in.Rd&31] = next
			regs[0] = 0
			next = pc + uint64(in.Imm)
		case isa.OpJALR:
			t := next
			next = (regs[in.Rs1&31] + uint64(in.Imm)) &^ 1
			regs[in.Rd&31] = t
			regs[0] = 0
		case isa.OpBEQ:
			if regs[in.Rs1&31] == regs[in.Rs2&31] {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBNE:
			if regs[in.Rs1&31] != regs[in.Rs2&31] {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBLT:
			if int64(regs[in.Rs1&31]) < int64(regs[in.Rs2&31]) {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBGE:
			if int64(regs[in.Rs1&31]) >= int64(regs[in.Rs2&31]) {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBLTU:
			if regs[in.Rs1&31] < regs[in.Rs2&31] {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBGEU:
			if regs[in.Rs1&31] >= regs[in.Rs2&31] {
				next = pc + uint64(in.Imm)
			}

		case isa.OpLD:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var rd uint64
			if off := addr & (pageSize - 1); off <= pageSize-8 {
				if p := mem.lookup(addr); p != nil {
					rd = binary.LittleEndian.Uint64(p[off:])
				}
			} else {
				rd = mem.Read(addr, 8)
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpLW:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint32
			if off := addr & (pageSize - 1); off <= pageSize-4 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint32(p[off:])
				}
			} else {
				v = uint32(mem.Read(addr, 4))
			}
			regs[in.Rd&31] = extendLoad(isa.OpLW, uint64(v))
			regs[0] = 0
		case isa.OpLWU:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint32
			if off := addr & (pageSize - 1); off <= pageSize-4 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint32(p[off:])
				}
			} else {
				v = uint32(mem.Read(addr, 4))
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0
		case isa.OpLH:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint16
			if off := addr & (pageSize - 1); off <= pageSize-2 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint16(p[off:])
				}
			} else {
				v = uint16(mem.Read(addr, 2))
			}
			regs[in.Rd&31] = extendLoad(isa.OpLH, uint64(v))
			regs[0] = 0
		case isa.OpLHU:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint16
			if off := addr & (pageSize - 1); off <= pageSize-2 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint16(p[off:])
				}
			} else {
				v = uint16(mem.Read(addr, 2))
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0
		case isa.OpLB:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v byte
			if p := mem.lookup(addr); p != nil {
				v = p[addr&(pageSize-1)]
			}
			regs[in.Rd&31] = extendLoad(isa.OpLB, uint64(v))
			regs[0] = 0
		case isa.OpLBU:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v byte
			if p := mem.lookup(addr); p != nil {
				v = p[addr&(pageSize-1)]
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0

		case isa.OpSD:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			mem.store64(addr, regs[in.Rs2&31])
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 8)
			}
		case isa.OpSW:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			mem.store32(addr, regs[in.Rs2&31])
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 4)
			}
		case isa.OpSH:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			mem.store16(addr, regs[in.Rs2&31])
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 2)
			}
		case isa.OpSB:
			addr := regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			mem.store8(addr, regs[in.Rs2&31])
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 1)
			}

		case isa.OpADDW:
			rd := addw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSUBW:
			rd := subw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLW:
			rd := sllw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLW:
			rd := srlw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAW:
			rd := sraw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpADDIW:
			rd := addw(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLIW:
			rd := sllw(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLIW:
			rd := srlw(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAIW:
			rd := sraw(regs[in.Rs1&31], uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULW:
			rd := mulw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVW:
			rd := divw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVUW:
			rd := divuw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMW:
			rd := remw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMUW:
			rd := remuw(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpFENCE:
			// No-op.
		default:
			// ECALL, EBREAK, CSR reads, invalid words, and anything else
			// with environment interactions runs on the reference path.
			goto slowpath
		}

		if next <= pc && !traceOff {
			// A backward (or self) edge was just taken: the landing pc is a
			// loop-head candidate. Dispatch a compiled superblock when one
			// exists and a full pass fits in the remaining budget (the
			// budget is already clamped to the instruction limit, the Stop
			// poll chunk, and the checkpoint boundary, so a trace can never
			// overrun any of them); otherwise bump the head's hotness,
			// compiling it at the threshold. See trace.go. With TraceOff
			// set the whole block is skipped and the loop stays a pure
			// predecoded interpreter (the farm's "fast" tier).
			pc = next
			budget--
			if t := m.lookupTrace(pc); t != nil {
				if t.n != 0 && budget >= t.n {
					m.traceHits++
					m.fusionSeen |= t.fusion
					var nret uint64
					pc, nret = m.runTrace(t, regs, mem, devLo, devSpan, predLo, predSpan, budget)
					budget -= nret
					m.traceInstrs += nret
				}
			} else {
				m.noteHot(pc)
			}
			continue
		}
		pc = next
		budget--
		continue

	slowpath:
		// Publish architectural state, retire exactly one instruction on
		// the reference path, and resume the fast loop.
		consumed = budget0 - budget
		m.PC = pc
		m.Instret += consumed
		m.Now += consumed
		if err := m.StepInto(&ev); err != nil {
			return err
		}
		m.Now++ // RunFunctional charges one cycle per instruction
		pc = m.PC
		// The slow step may have landed exactly on a checkpoint boundary.
		if err := m.maybeCheckpoint(); err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
		// Slow steps (MMIO, syscalls) can dominate some guests' time, so
		// the kill switch is also polled here — with no Stop channel this
		// is one nil check per slow step.
		if m.Interrupted() {
			return ErrStopped
		}
		budget0 = m.chunkBudget(limit)
		budget = budget0
		// The slow step may have decoded code at a new address (extending
		// the store-invalidation guard) or switched curSeg; re-hoist the
		// loop's cached bounds so fetch and the store guard stay coherent.
		predLo, predSpan = m.predLo, m.predHi-m.predLo
		if s := m.curSeg; s != nil {
			segBase, segUops = s.base, s.uops
		}
	}
}
