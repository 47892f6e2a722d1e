// RV64IM value rules and the RAM store path, each written once.
//
// The three executors — the reference StepInto (machine.go), the
// predecoded runFast (fastpath.go) and the superblock runTrace (trace.go)
// — keep their own fetch, dispatch, operand plumbing, device pre-check and
// code-guard exit, but every rule that is more than one Go operator lives
// here and all three call it. Operations that are a single Go operator
// (a+b, a^b, a*b) stay operators at the call site.
//
// The value rules take and return raw 64-bit register values — an I-type
// caller passes its immediate as b — so a call site is f(rs1, rs2) with no
// casts of its own. semantics_test.go pins each one to constants worked
// out from the RISC-V specification: being shared, they are beyond the
// reach of the tier-against-tier suites. scripts/check.sh fails if any of
// them stops inlining (the store helpers are calls by design).
package sim

import (
	"encoding/binary"
	"math/bits"

	"firemarshal/internal/isa"
)

// slt and sltu are SLT[I] and SLT[I]U: 1 when a < b, signed or unsigned.
func slt(a, b uint64) uint64 {
	if int64(a) < int64(b) {
		return 1
	}
	return 0
}

func sltu(a, b uint64) uint64 {
	if a < b {
		return 1
	}
	return 0
}

// sll, srl and sra shift by the low six bits of b; Go's own shifts do not
// mask, so a guest amount of 64 or more would otherwise clear the value.
func sll(a, b uint64) uint64 { return a << (b & 63) }
func srl(a, b uint64) uint64 { return a >> (b & 63) }
func sra(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }

// mulh is the high half of the signed 128-bit product: the unsigned high
// half, less the other operand for each operand that is negative.
func mulh(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return hi
}

// mulhu is the high half of the unsigned 128-bit product.
func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// Division never traps (spec §M): dividing by zero yields all ones and the
// remainder is the dividend; the one signed overflow, the most negative
// value over -1, yields the dividend and remainder 0.

func div(a, b uint64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case int64(a) == -1<<63 && int64(b) == -1:
		return a
	default:
		return uint64(int64(a) / int64(b))
	}
}

func divu(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func rem(a, b uint64) uint64 {
	switch {
	case b == 0:
		return a
	case int64(a) == -1<<63 && int64(b) == -1:
		return 0
	default:
		return uint64(int64(a) % int64(b))
	}
}

func remu(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// sext32 sign-extends a 32-bit value to 64 bits.
func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

// The W forms operate on the low 32 bits of each operand, wrap there, and
// sign-extend the 32-bit result; their shifts use the low five bits of b.

func addw(a, b uint64) uint64 { return sext32(uint32(a) + uint32(b)) }
func subw(a, b uint64) uint64 { return sext32(uint32(a) - uint32(b)) }
func mulw(a, b uint64) uint64 { return sext32(uint32(a) * uint32(b)) }
func sllw(a, b uint64) uint64 { return sext32(uint32(a) << (b & 31)) }
func srlw(a, b uint64) uint64 { return sext32(uint32(a) >> (b & 31)) }
func sraw(a, b uint64) uint64 { return uint64(int64(int32(a) >> (b & 31))) }

// The W divisions are the 64-bit rules applied to the sign- or
// zero-extended low words. Nothing is special-cased again: a zero divisor
// gives all ones and the dividend as above, and the one 32-bit overflow,
// -2^31 / -1, is the ordinary 64-bit quotient +2^31, which the final
// truncate-and-sign-extend wraps back to -2^31 (remainder 0).

func divw(a, b uint64) uint64  { return sext32(uint32(div(sext32(uint32(a)), sext32(uint32(b))))) }
func remw(a, b uint64) uint64  { return sext32(uint32(rem(sext32(uint32(a)), sext32(uint32(b))))) }
func divuw(a, b uint64) uint64 { return sext32(uint32(divu(uint64(uint32(a)), uint64(uint32(b))))) }
func remuw(a, b uint64) uint64 { return sext32(uint32(remu(uint64(uint32(a)), uint64(uint32(b))))) }

// extendLoad widens a loaded value to 64 bits: LB, LH and LW sign-extend
// from their width, the unsigned forms and LD take v as it is. Executors
// whose case already fixes op pass it as a constant, and the switch folds
// away after inlining.
func extendLoad(op isa.Op, v uint64) uint64 {
	switch op {
	case isa.OpLB:
		return uint64(int64(int8(v)))
	case isa.OpLH:
		return uint64(int64(int16(v)))
	case isa.OpLW:
		return sext32(uint32(v))
	default:
		return v
	}
}

// store8 … store64 write the low 1, 2, 4 or 8 bytes of v to RAM at addr,
// little-endian. A store inside one page writes through the soft TLB with
// the hit test inlined (storeHit), so the common store is this one call and
// not a second one; a store that straddles a page boundary goes bytewise
// through WriteBytes. Either way an unmapped page is allocated and every
// page written is marked dirty. Devices and the decoded-code guard are the
// caller's to check: these know only memory.

func (m *Memory) store8(addr, v uint64) {
	p := m.storeHit(addr)
	if p == nil {
		p = m.storeMiss(addr >> pageBits)
	}
	p[addr&(pageSize-1)] = byte(v)
}

func (m *Memory) store16(addr, v uint64) {
	off := addr & (pageSize - 1)
	if off > pageSize-2 {
		m.storeStraddle(addr, 2, v)
		return
	}
	p := m.storeHit(addr)
	if p == nil {
		p = m.storeMiss(addr >> pageBits)
	}
	binary.LittleEndian.PutUint16(p[off:], uint16(v))
}

func (m *Memory) store32(addr, v uint64) {
	off := addr & (pageSize - 1)
	if off > pageSize-4 {
		m.storeStraddle(addr, 4, v)
		return
	}
	p := m.storeHit(addr)
	if p == nil {
		p = m.storeMiss(addr >> pageBits)
	}
	binary.LittleEndian.PutUint32(p[off:], uint32(v))
}

func (m *Memory) store64(addr, v uint64) {
	off := addr & (pageSize - 1)
	if off > pageSize-8 {
		m.storeStraddle(addr, 8, v)
		return
	}
	p := m.storeHit(addr)
	if p == nil {
		p = m.storeMiss(addr >> pageBits)
	}
	binary.LittleEndian.PutUint64(p[off:], v)
}

// storeStraddle is the page-crossing remainder of the store helpers.
func (m *Memory) storeStraddle(addr uint64, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:size])
}
