// Package isa defines the guest instruction set for the FireMarshal
// reproduction: a subset of RV64IM (plus the Zicsr counter CSRs) with the
// standard RISC-V instruction encodings. Workload binaries are real machine
// code produced by the internal/asm assembler and executed by both the
// functional simulator (QEMU/Spike role) and the cycle-exact simulator
// (FireSim role) — giving the paper's property that the exact same artifact
// bytes run on every simulation platform.
package isa

import (
	"errors"
	"fmt"
)

// Op identifies a decoded operation.
type Op uint8

// Operations. Order is stable; new ops append.
const (
	OpInvalid Op = iota
	// RV32I/RV64I register-register
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	// M extension
	OpMUL
	OpMULH
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	// Immediate ALU
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	// Upper immediates
	OpLUI
	OpAUIPC
	// Control flow
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	// Loads
	OpLB
	OpLH
	OpLW
	OpLD
	OpLBU
	OpLHU
	OpLWU
	// Stores
	OpSB
	OpSH
	OpSW
	OpSD
	// System
	OpECALL
	OpEBREAK
	OpCSRRS
	OpCSRRW
	OpFENCE
	// RV64 W-suffix (32-bit) operations
	OpADDW
	OpSUBW
	OpSLLW
	OpSRLW
	OpSRAW
	OpADDIW
	OpSLLIW
	OpSRLIW
	OpSRAIW
	OpMULW
	OpDIVW
	OpDIVUW
	OpREMW
	OpREMUW
	opMax
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpMUL: "mul", OpMULH: "mulh", OpMULHU: "mulhu", OpDIV: "div", OpDIVU: "divu",
	OpREM: "rem", OpREMU: "remu",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpLUI: "lui", OpAUIPC: "auipc",
	OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLD: "ld", OpLBU: "lbu", OpLHU: "lhu", OpLWU: "lwu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw", OpSD: "sd",
	OpECALL: "ecall", OpEBREAK: "ebreak", OpCSRRS: "csrrs", OpCSRRW: "csrrw",
	OpFENCE: "fence",
	OpADDW:  "addw", OpSUBW: "subw", OpSLLW: "sllw", OpSRLW: "srlw", OpSRAW: "sraw",
	OpADDIW: "addiw", OpSLLIW: "slliw", OpSRLIW: "srliw", OpSRAIW: "sraiw",
	OpMULW: "mulw", OpDIVW: "divw", OpDIVUW: "divuw", OpREMW: "remw", OpREMUW: "remuw",
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op >= OpBEQ && op <= OpBGEU }

// IsJump reports whether op is an unconditional jump.
func (op Op) IsJump() bool { return op == OpJAL || op == OpJALR }

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op >= OpLB && op <= OpLWU }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op >= OpSB && op <= OpSD }

// IsMulDiv reports whether op uses the multiplier/divider.
func (op Op) IsMulDiv() bool {
	return (op >= OpMUL && op <= OpREMU) || (op >= OpMULW && op <= OpREMUW)
}

// IsMul reports whether op uses only the multiplier.
func (op Op) IsMul() bool {
	return op == OpMUL || op == OpMULH || op == OpMULHU || op == OpMULW
}

// CSR numbers implemented by the simulators.
const (
	CSRCycle   = 0xC00
	CSRTime    = 0xC01
	CSRInstret = 0xC02
	CSRMHartID = 0xF14
)

// Instr is a decoded instruction.
type Instr struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int64  // sign-extended immediate (shamt for shifts, CSR in CSR ops)
	Raw      uint32 // original encoding
}

// RISC-V base opcodes.
const (
	opcLUI     = 0b0110111
	opcAUIPC   = 0b0010111
	opcJAL     = 0b1101111
	opcJALR    = 0b1100111
	opcBranch  = 0b1100011
	opcLoad    = 0b0000011
	opcStore   = 0b0100011
	opcOpImm   = 0b0010011
	opcOp      = 0b0110011
	opcSystem  = 0b1110011
	opcFence   = 0b0001111
	opcOpImm32 = 0b0011011
	opcOp32    = 0b0111011
)

// signExtend returns v sign-extended from `bits` width.
func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode lookup tables, indexed by funct3. Unassigned slots hold OpInvalid
// (the zero Op), which Decode reports as an encoding error. Package-level
// arrays instead of per-call map literals: Decode runs for every word of
// every loaded segment at predecode time.
var (
	branchOps = [8]Op{0: OpBEQ, 1: OpBNE, 4: OpBLT, 5: OpBGE, 6: OpBLTU, 7: OpBGEU}
	loadOps   = [8]Op{0: OpLB, 1: OpLH, 2: OpLW, 3: OpLD, 4: OpLBU, 5: OpLHU, 6: OpLWU}
	storeOps  = [8]Op{0: OpSB, 1: OpSH, 2: OpSW, 3: OpSD}
	// OP (R-type): funct7 = 0, 0x20, and 1 (the M extension).
	rOps    = [8]Op{OpADD, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpOR, OpAND}
	rOpsSub = [8]Op{0: OpSUB, 5: OpSRA}
	mOps    = [8]Op{0: OpMUL, 1: OpMULH, 3: OpMULHU, 4: OpDIV, 5: OpDIVU, 6: OpREM, 7: OpREMU}
	// OP-32 (W-suffixed): same funct7 split.
	wOps    = [8]Op{0: OpADDW, 1: OpSLLW, 5: OpSRLW}
	wOpsSub = [8]Op{0: OpSUBW, 5: OpSRAW}
	mwOps   = [8]Op{0: OpMULW, 4: OpDIVW, 5: OpDIVUW, 6: OpREMW, 7: OpREMUW}
)

// Why a word does not decode. These are shared values, not formatted per
// word: predecoding a segment runs Decode over every data word and discards
// the error, so the failing path must not allocate. Callers that report one
// add the word themselves.
var (
	errBadJALR       = errors.New("isa: bad JALR funct3")
	errBadBranch     = errors.New("isa: bad branch funct3")
	errBadLoad       = errors.New("isa: bad load funct3")
	errBadStore      = errors.New("isa: bad store funct3")
	errBadShift      = errors.New("isa: bad shift funct7")
	errBadOp         = errors.New("isa: bad R-type funct3/funct7")
	errBadSystem     = errors.New("isa: unsupported SYSTEM encoding")
	errBadShiftW     = errors.New("isa: bad W-shift funct7")
	errBadOpImm32    = errors.New("isa: bad OP-IMM-32 funct3")
	errBadOp32       = errors.New("isa: bad OP-32 funct3/funct7")
	errUnknownOpcode = errors.New("isa: unknown opcode")
)

// Decode decodes a 32-bit RISC-V instruction word.
func Decode(raw uint32) (Instr, error) {
	in := Instr{Raw: raw}
	opcode := raw & 0x7f
	rd := uint8((raw >> 7) & 0x1f)
	funct3 := (raw >> 12) & 0x7
	rs1 := uint8((raw >> 15) & 0x1f)
	rs2 := uint8((raw >> 20) & 0x1f)
	funct7 := (raw >> 25) & 0x7f

	switch opcode {
	case opcLUI:
		in.Op, in.Rd = OpLUI, rd
		in.Imm = signExtend(raw&0xfffff000, 32)
	case opcAUIPC:
		in.Op, in.Rd = OpAUIPC, rd
		in.Imm = signExtend(raw&0xfffff000, 32)
	case opcJAL:
		in.Op, in.Rd = OpJAL, rd
		imm := ((raw>>31)&1)<<20 | ((raw>>12)&0xff)<<12 | ((raw>>20)&1)<<11 | ((raw>>21)&0x3ff)<<1
		in.Imm = signExtend(imm, 21)
	case opcJALR:
		if funct3 != 0 {
			return in, errBadJALR
		}
		in.Op, in.Rd, in.Rs1 = OpJALR, rd, rs1
		in.Imm = signExtend(raw>>20, 12)
	case opcBranch:
		op := branchOps[funct3]
		if op == OpInvalid {
			return in, errBadBranch
		}
		in.Op, in.Rs1, in.Rs2 = op, rs1, rs2
		imm := ((raw>>31)&1)<<12 | ((raw>>7)&1)<<11 | ((raw>>25)&0x3f)<<5 | ((raw>>8)&0xf)<<1
		in.Imm = signExtend(imm, 13)
	case opcLoad:
		op := loadOps[funct3]
		if op == OpInvalid {
			return in, errBadLoad
		}
		in.Op, in.Rd, in.Rs1 = op, rd, rs1
		in.Imm = signExtend(raw>>20, 12)
	case opcStore:
		op := storeOps[funct3]
		if op == OpInvalid {
			return in, errBadStore
		}
		in.Op, in.Rs1, in.Rs2 = op, rs1, rs2
		imm := ((raw>>25)&0x7f)<<5 | (raw>>7)&0x1f
		in.Imm = signExtend(imm, 12)
	case opcOpImm:
		in.Rd, in.Rs1 = rd, rs1
		switch funct3 {
		case 0:
			in.Op = OpADDI
		case 2:
			in.Op = OpSLTI
		case 3:
			in.Op = OpSLTIU
		case 4:
			in.Op = OpXORI
		case 6:
			in.Op = OpORI
		case 7:
			in.Op = OpANDI
		case 1:
			if funct7>>1 != 0 {
				return in, errBadShift
			}
			in.Op = OpSLLI
			in.Imm = int64(raw >> 20 & 0x3f)
			return in, nil
		case 5:
			switch funct7 >> 1 {
			case 0:
				in.Op = OpSRLI
			case 0b10000:
				in.Op = OpSRAI
			default:
				return in, errBadShift
			}
			in.Imm = int64(raw >> 20 & 0x3f)
			return in, nil
		}
		in.Imm = signExtend(raw>>20, 12)
	case opcOp:
		in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
		var op Op
		switch funct7 {
		case 0:
			op = rOps[funct3]
		case 0x20:
			op = rOpsSub[funct3]
		case 1:
			op = mOps[funct3]
		}
		if op == OpInvalid {
			return in, errBadOp
		}
		in.Op = op
	case opcSystem:
		switch {
		case raw == 0x00000073:
			in.Op = OpECALL
		case raw == 0x00100073:
			in.Op = OpEBREAK
		case funct3 == 1:
			in.Op, in.Rd, in.Rs1 = OpCSRRW, rd, rs1
			in.Imm = int64(raw >> 20)
		case funct3 == 2:
			in.Op, in.Rd, in.Rs1 = OpCSRRS, rd, rs1
			in.Imm = int64(raw >> 20)
		default:
			return in, errBadSystem
		}
	case opcOpImm32:
		in.Rd, in.Rs1 = rd, rs1
		switch funct3 {
		case 0:
			in.Op = OpADDIW
			in.Imm = signExtend(raw>>20, 12)
		case 1:
			if funct7 != 0 {
				return in, errBadShiftW
			}
			in.Op = OpSLLIW
			in.Imm = int64(raw >> 20 & 0x1f)
		case 5:
			switch funct7 {
			case 0:
				in.Op = OpSRLIW
			case 0x20:
				in.Op = OpSRAIW
			default:
				return in, errBadShiftW
			}
			in.Imm = int64(raw >> 20 & 0x1f)
		default:
			return in, errBadOpImm32
		}
	case opcOp32:
		in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
		var op Op
		switch funct7 {
		case 0:
			op = wOps[funct3]
		case 0x20:
			op = wOpsSub[funct3]
		case 1:
			op = mwOps[funct3]
		}
		if op == OpInvalid {
			return in, errBadOp32
		}
		in.Op = op
	case opcFence:
		in.Op = OpFENCE
	default:
		return in, errUnknownOpcode
	}
	return in, nil
}

// Encode produces the 32-bit word for a decoded instruction. It is the
// inverse of Decode for every supported operation.
func Encode(in Instr) (uint32, error) {
	rd := uint32(in.Rd) & 0x1f
	rs1 := uint32(in.Rs1) & 0x1f
	rs2 := uint32(in.Rs2) & 0x1f
	switch in.Op {
	case OpLUI, OpAUIPC:
		opc := uint32(opcLUI)
		if in.Op == OpAUIPC {
			opc = opcAUIPC
		}
		if in.Imm&0xfff != 0 {
			return 0, fmt.Errorf("isa: %s immediate %#x has low bits set", in.Op, in.Imm)
		}
		if err := checkRange(in.Imm>>12, 20, true, in.Op); err != nil {
			return 0, err
		}
		return uint32(in.Imm)&0xfffff000 | rd<<7 | opc, nil
	case OpJAL:
		if err := checkRange(in.Imm, 21, true, in.Op); err != nil {
			return 0, err
		}
		if in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: JAL offset must be even")
		}
		imm := uint32(in.Imm)
		enc := ((imm>>20)&1)<<31 | ((imm>>1)&0x3ff)<<21 | ((imm>>11)&1)<<20 | ((imm>>12)&0xff)<<12
		return enc | rd<<7 | opcJAL, nil
	case OpJALR:
		if err := checkRange(in.Imm, 12, true, in.Op); err != nil {
			return 0, err
		}
		return (uint32(in.Imm)&0xfff)<<20 | rs1<<15 | rd<<7 | opcJALR, nil
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		f3 := map[Op]uint32{OpBEQ: 0, OpBNE: 1, OpBLT: 4, OpBGE: 5, OpBLTU: 6, OpBGEU: 7}[in.Op]
		if err := checkRange(in.Imm, 13, true, in.Op); err != nil {
			return 0, err
		}
		if in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: branch offset must be even")
		}
		imm := uint32(in.Imm)
		enc := ((imm>>12)&1)<<31 | ((imm>>5)&0x3f)<<25 | ((imm>>1)&0xf)<<8 | ((imm>>11)&1)<<7
		return enc | rs2<<20 | rs1<<15 | f3<<12 | opcBranch, nil
	case OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU:
		f3 := map[Op]uint32{OpLB: 0, OpLH: 1, OpLW: 2, OpLD: 3, OpLBU: 4, OpLHU: 5, OpLWU: 6}[in.Op]
		if err := checkRange(in.Imm, 12, true, in.Op); err != nil {
			return 0, err
		}
		return (uint32(in.Imm)&0xfff)<<20 | rs1<<15 | f3<<12 | rd<<7 | opcLoad, nil
	case OpSB, OpSH, OpSW, OpSD:
		f3 := map[Op]uint32{OpSB: 0, OpSH: 1, OpSW: 2, OpSD: 3}[in.Op]
		if err := checkRange(in.Imm, 12, true, in.Op); err != nil {
			return 0, err
		}
		imm := uint32(in.Imm)
		return ((imm>>5)&0x7f)<<25 | rs2<<20 | rs1<<15 | f3<<12 | (imm&0x1f)<<7 | opcStore, nil
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI:
		f3 := map[Op]uint32{OpADDI: 0, OpSLTI: 2, OpSLTIU: 3, OpXORI: 4, OpORI: 6, OpANDI: 7}[in.Op]
		if err := checkRange(in.Imm, 12, true, in.Op); err != nil {
			return 0, err
		}
		return (uint32(in.Imm)&0xfff)<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOpImm, nil
	case OpSLLI, OpSRLI, OpSRAI:
		if in.Imm < 0 || in.Imm > 63 {
			return 0, fmt.Errorf("isa: shift amount %d out of range", in.Imm)
		}
		var f3, f7 uint32
		switch in.Op {
		case OpSLLI:
			f3 = 1
		case OpSRLI:
			f3 = 5
		case OpSRAI:
			f3, f7 = 5, 0x20
		}
		return f7<<25 | uint32(in.Imm)<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOpImm, nil
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		type enc struct{ f3, f7 uint32 }
		encs := map[Op]enc{
			OpADD: {0, 0}, OpSUB: {0, 0x20}, OpSLL: {1, 0}, OpSLT: {2, 0},
			OpSLTU: {3, 0}, OpXOR: {4, 0}, OpSRL: {5, 0}, OpSRA: {5, 0x20},
			OpOR: {6, 0}, OpAND: {7, 0},
			OpMUL: {0, 1}, OpMULH: {1, 1}, OpMULHU: {3, 1},
			OpDIV: {4, 1}, OpDIVU: {5, 1}, OpREM: {6, 1}, OpREMU: {7, 1},
		}
		e := encs[in.Op]
		return e.f7<<25 | rs2<<20 | rs1<<15 | e.f3<<12 | rd<<7 | opcOp, nil
	case OpADDIW:
		if err := checkRange(in.Imm, 12, true, in.Op); err != nil {
			return 0, err
		}
		return (uint32(in.Imm)&0xfff)<<20 | rs1<<15 | rd<<7 | opcOpImm32, nil
	case OpSLLIW, OpSRLIW, OpSRAIW:
		if in.Imm < 0 || in.Imm > 31 {
			return 0, fmt.Errorf("isa: W-shift amount %d out of range", in.Imm)
		}
		var f3, f7 uint32
		switch in.Op {
		case OpSLLIW:
			f3 = 1
		case OpSRLIW:
			f3 = 5
		case OpSRAIW:
			f3, f7 = 5, 0x20
		}
		return f7<<25 | uint32(in.Imm)<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOpImm32, nil
	case OpADDW, OpSUBW, OpSLLW, OpSRLW, OpSRAW, OpMULW, OpDIVW, OpDIVUW, OpREMW, OpREMUW:
		type enc32 struct{ f3, f7 uint32 }
		encs := map[Op]enc32{
			OpADDW: {0, 0}, OpSUBW: {0, 0x20}, OpSLLW: {1, 0},
			OpSRLW: {5, 0}, OpSRAW: {5, 0x20},
			OpMULW: {0, 1}, OpDIVW: {4, 1}, OpDIVUW: {5, 1},
			OpREMW: {6, 1}, OpREMUW: {7, 1},
		}
		e := encs[in.Op]
		return e.f7<<25 | rs2<<20 | rs1<<15 | e.f3<<12 | rd<<7 | opcOp32, nil
	case OpECALL:
		return 0x00000073, nil
	case OpEBREAK:
		return 0x00100073, nil
	case OpCSRRW, OpCSRRS:
		f3 := uint32(1)
		if in.Op == OpCSRRS {
			f3 = 2
		}
		if in.Imm < 0 || in.Imm > 0xfff {
			return 0, fmt.Errorf("isa: CSR number %#x out of range", in.Imm)
		}
		return uint32(in.Imm)<<20 | rs1<<15 | f3<<12 | rd<<7 | opcSystem, nil
	case OpFENCE:
		return opcFence, nil
	}
	return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
}

func checkRange(v int64, bits uint, signed bool, op Op) error {
	if signed {
		min := -(int64(1) << (bits - 1))
		max := int64(1)<<(bits-1) - 1
		if v < min || v > max {
			return fmt.Errorf("isa: %s immediate %d out of %d-bit signed range", op, v, bits)
		}
		return nil
	}
	if v < 0 || v >= int64(1)<<bits {
		return fmt.Errorf("isa: %s immediate %d out of %d-bit range", op, v, bits)
	}
	return nil
}

// RegNames maps ABI register names to numbers.
var RegNames = map[string]uint8{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
	"t0": 5, "t1": 6, "t2": 7,
	"s0": 8, "fp": 8, "s1": 9,
	"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
	"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
	"s8": 24, "s9": 25, "s10": 26, "s11": 27,
	"t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

// RegName returns the ABI name for a register number.
func RegName(r uint8) string {
	names := [...]string{
		"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
		"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
		"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
		"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("x%d", r)
}
