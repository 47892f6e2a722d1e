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

// Format is an instruction's operand shape: which fields an encoding carries
// and how the assembler and disassembler write them.
type Format uint8

// Formats. FmtLoad is the I-type encoding written "rd, imm(rs1)" (loads and
// jalr); FmtShift is the I-type whose immediate is a shift amount.
const (
	FmtNone   Format = iota // no operands: ecall, ebreak, fence
	FmtR                    // rd, rs1, rs2
	FmtI                    // rd, rs1, imm
	FmtShift                // rd, rs1, shamt
	FmtLoad                 // rd, imm(rs1)
	FmtStore                // rs2, imm(rs1)
	FmtBranch               // rs1, rs2, offset
	FmtU                    // rd, imm[31:12]
	FmtJ                    // rd, offset
	FmtCSR                  // rd, csr, rs1
)

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

// enc places an instruction's fixed bits: opcode, funct3 and funct7.
func enc(opcode, funct3, funct7 uint32) uint32 { return funct7<<25 | funct3<<12 | opcode }

// insts is the instruction set, stated once: the mnemonic, the operand format
// and the fixed bits of every operation. Op.String, OpByName, Decode (through
// decodeTab), Encode, Disassemble and the assembler all read it; nothing else
// in the tree spells a mnemonic or a funct3/funct7 value.
var insts = [opMax]struct {
	name   string
	format Format
	bits   uint32
}{
	OpInvalid: {name: "invalid"},

	OpADD:  {"add", FmtR, enc(opcOp, 0, 0)},
	OpSUB:  {"sub", FmtR, enc(opcOp, 0, 0x20)},
	OpSLL:  {"sll", FmtR, enc(opcOp, 1, 0)},
	OpSLT:  {"slt", FmtR, enc(opcOp, 2, 0)},
	OpSLTU: {"sltu", FmtR, enc(opcOp, 3, 0)},
	OpXOR:  {"xor", FmtR, enc(opcOp, 4, 0)},
	OpSRL:  {"srl", FmtR, enc(opcOp, 5, 0)},
	OpSRA:  {"sra", FmtR, enc(opcOp, 5, 0x20)},
	OpOR:   {"or", FmtR, enc(opcOp, 6, 0)},
	OpAND:  {"and", FmtR, enc(opcOp, 7, 0)},

	OpMUL:   {"mul", FmtR, enc(opcOp, 0, 1)},
	OpMULH:  {"mulh", FmtR, enc(opcOp, 1, 1)},
	OpMULHU: {"mulhu", FmtR, enc(opcOp, 3, 1)},
	OpDIV:   {"div", FmtR, enc(opcOp, 4, 1)},
	OpDIVU:  {"divu", FmtR, enc(opcOp, 5, 1)},
	OpREM:   {"rem", FmtR, enc(opcOp, 6, 1)},
	OpREMU:  {"remu", FmtR, enc(opcOp, 7, 1)},

	OpADDI:  {"addi", FmtI, enc(opcOpImm, 0, 0)},
	OpSLTI:  {"slti", FmtI, enc(opcOpImm, 2, 0)},
	OpSLTIU: {"sltiu", FmtI, enc(opcOpImm, 3, 0)},
	OpXORI:  {"xori", FmtI, enc(opcOpImm, 4, 0)},
	OpORI:   {"ori", FmtI, enc(opcOpImm, 6, 0)},
	OpANDI:  {"andi", FmtI, enc(opcOpImm, 7, 0)},
	OpSLLI:  {"slli", FmtShift, enc(opcOpImm, 1, 0)},
	OpSRLI:  {"srli", FmtShift, enc(opcOpImm, 5, 0)},
	OpSRAI:  {"srai", FmtShift, enc(opcOpImm, 5, 0x20)},

	OpLUI:   {"lui", FmtU, opcLUI},
	OpAUIPC: {"auipc", FmtU, opcAUIPC},

	OpJAL:  {"jal", FmtJ, opcJAL},
	OpJALR: {"jalr", FmtLoad, enc(opcJALR, 0, 0)},
	OpBEQ:  {"beq", FmtBranch, enc(opcBranch, 0, 0)},
	OpBNE:  {"bne", FmtBranch, enc(opcBranch, 1, 0)},
	OpBLT:  {"blt", FmtBranch, enc(opcBranch, 4, 0)},
	OpBGE:  {"bge", FmtBranch, enc(opcBranch, 5, 0)},
	OpBLTU: {"bltu", FmtBranch, enc(opcBranch, 6, 0)},
	OpBGEU: {"bgeu", FmtBranch, enc(opcBranch, 7, 0)},

	OpLB:  {"lb", FmtLoad, enc(opcLoad, 0, 0)},
	OpLH:  {"lh", FmtLoad, enc(opcLoad, 1, 0)},
	OpLW:  {"lw", FmtLoad, enc(opcLoad, 2, 0)},
	OpLD:  {"ld", FmtLoad, enc(opcLoad, 3, 0)},
	OpLBU: {"lbu", FmtLoad, enc(opcLoad, 4, 0)},
	OpLHU: {"lhu", FmtLoad, enc(opcLoad, 5, 0)},
	OpLWU: {"lwu", FmtLoad, enc(opcLoad, 6, 0)},

	OpSB: {"sb", FmtStore, enc(opcStore, 0, 0)},
	OpSH: {"sh", FmtStore, enc(opcStore, 1, 0)},
	OpSW: {"sw", FmtStore, enc(opcStore, 2, 0)},
	OpSD: {"sd", FmtStore, enc(opcStore, 3, 0)},

	// ecall and ebreak are whole words (they differ in the rs2 field);
	// fence owns its opcode and ignores every other field.
	OpECALL:  {"ecall", FmtNone, 0x00000073},
	OpEBREAK: {"ebreak", FmtNone, 0x00100073},
	OpCSRRS:  {"csrrs", FmtCSR, enc(opcSystem, 2, 0)},
	OpCSRRW:  {"csrrw", FmtCSR, enc(opcSystem, 1, 0)},
	OpFENCE:  {"fence", FmtNone, opcFence},

	OpADDW:  {"addw", FmtR, enc(opcOp32, 0, 0)},
	OpSUBW:  {"subw", FmtR, enc(opcOp32, 0, 0x20)},
	OpSLLW:  {"sllw", FmtR, enc(opcOp32, 1, 0)},
	OpSRLW:  {"srlw", FmtR, enc(opcOp32, 5, 0)},
	OpSRAW:  {"sraw", FmtR, enc(opcOp32, 5, 0x20)},
	OpADDIW: {"addiw", FmtI, enc(opcOpImm32, 0, 0)},
	OpSLLIW: {"slliw", FmtShift, enc(opcOpImm32, 1, 0)},
	OpSRLIW: {"srliw", FmtShift, enc(opcOpImm32, 5, 0)},
	OpSRAIW: {"sraiw", FmtShift, enc(opcOpImm32, 5, 0x20)},
	OpMULW:  {"mulw", FmtR, enc(opcOp32, 0, 1)},
	OpDIVW:  {"divw", FmtR, enc(opcOp32, 4, 1)},
	OpDIVUW: {"divuw", FmtR, enc(opcOp32, 5, 1)},
	OpREMW:  {"remw", FmtR, enc(opcOp32, 6, 1)},
	OpREMUW: {"remuw", FmtR, enc(opcOp32, 7, 1)},
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if op < opMax {
		return insts[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Format returns op's operand format (FmtNone for a value that is no
// operation).
func (op Op) Format() Format {
	if op < opMax {
		return insts[op].format
	}
	return FmtNone
}

// opsByName inverts the table's mnemonic column.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, opMax)
	for op := OpInvalid + 1; op < opMax; op++ {
		m[insts[op].name] = op
	}
	return m
}()

// OpByName returns the operation a mnemonic names.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
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

// signExtend returns v sign-extended from `bits` width.
func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// funct7Class folds funct7 to the three values any operation assigns; every
// other value is class 0. It is decodeTab's last index. A table, not a
// switch: funct7 is immediate bits in most formats, so a branch on it would
// be unpredictable.
var funct7Class = [128]uint8{0: 1, 0x20: 2, 1: 3}

// shamtBits is the width of a FmtShift immediate: 6 bits under OP-IMM,
// where the low bit of funct7 is shamt[5], and 5 under OP-IMM-32.
func shamtBits(bits uint32) uint {
	if bits&0x7f == opcOpImm {
		return 6
	}
	return 5
}

// decodeTab is insts inverted for Decode: [opcode>>2][funct3][funct7Class]
// → Op, OpInvalid where nothing is assigned. A format that does not carry
// funct3 (U, J, fence) or funct7 (everything but R and shifts) owns every
// slot along that axis. A flat array instead of a map: Decode runs for every
// word of every loaded segment at predecode time. ecall and ebreak are not
// in it — they are single words, which Decode compares directly.
var decodeTab = func() (tab [32][8][4]Op) {
	for op := OpInvalid + 1; op < opMax; op++ {
		if op == OpECALL || op == OpEBREAK {
			continue
		}
		e := &insts[op]
		anyFunct3 := e.format == FmtNone || e.format == FmtU || e.format == FmtJ
		anyFunct7 := e.format != FmtR && e.format != FmtShift
		for f3 := range tab[0] {
			for class := range tab[0][0] {
				if (anyFunct3 || uint32(f3) == e.bits>>12&7) && (anyFunct7 || class == int(funct7Class[e.bits>>25])) {
					tab[e.bits>>2&0x1f][f3][class] = op
				}
			}
		}
	}
	return tab
}()

// knownOpcodes has bit opcode>>2 set for every opcode an operation uses.
var knownOpcodes = func() (mask uint32) {
	for op := OpInvalid + 1; op < opMax; op++ {
		mask |= 1 << (insts[op].bits >> 2 & 0x1f)
	}
	return mask
}()

// Why a word does not decode. These are shared values, not formatted per
// word: predecoding a segment runs Decode over every data word and discards
// the error, so the failing path must not allocate. Callers that report one
// add the word themselves.
var (
	errUnknownOpcode = errors.New("isa: unknown opcode")
	errReserved      = errors.New("isa: reserved funct3/funct7 encoding")
)

// Decode decodes a 32-bit RISC-V instruction word.
func Decode(raw uint32) (Instr, error) {
	in := Instr{Raw: raw}
	if raw&3 != 3 || knownOpcodes>>(raw>>2&0x1f)&1 == 0 {
		return in, errUnknownOpcode
	}
	funct7 := raw >> 25
	if raw&0x7f == opcOpImm {
		funct7 &^= 1 // shamt[5]; the other OP-IMM operations ignore funct7
	}
	in.Op = decodeTab[raw>>2&0x1f][raw>>12&7][funct7Class[funct7]]
	if in.Op == OpInvalid {
		switch raw {
		case insts[OpECALL].bits:
			in.Op = OpECALL
		case insts[OpEBREAK].bits:
			in.Op = OpEBREAK
		default:
			return in, errReserved
		}
		return in, nil
	}
	rd := uint8(raw >> 7 & 0x1f)
	rs1 := uint8(raw >> 15 & 0x1f)
	rs2 := uint8(raw >> 20 & 0x1f)
	e := &insts[in.Op]
	switch e.format {
	case FmtR:
		in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
	case FmtI, FmtLoad:
		in.Rd, in.Rs1 = rd, rs1
		in.Imm = signExtend(raw>>20, 12)
	case FmtShift:
		in.Rd, in.Rs1 = rd, rs1
		in.Imm = int64(raw >> 20 & (1<<shamtBits(e.bits) - 1))
	case FmtStore:
		in.Rs1, in.Rs2 = rs1, rs2
		in.Imm = signExtend((raw>>25)<<5|raw>>7&0x1f, 12)
	case FmtBranch:
		in.Rs1, in.Rs2 = rs1, rs2
		imm := (raw>>31)<<12 | (raw>>7&1)<<11 | (raw>>25&0x3f)<<5 | (raw>>8&0xf)<<1
		in.Imm = signExtend(imm, 13)
	case FmtU:
		in.Rd = rd
		in.Imm = signExtend(raw&0xfffff000, 32)
	case FmtJ:
		in.Rd = rd
		imm := (raw>>31)<<20 | (raw>>12&0xff)<<12 | (raw>>20&1)<<11 | (raw>>21&0x3ff)<<1
		in.Imm = signExtend(imm, 21)
	case FmtCSR:
		in.Rd, in.Rs1 = rd, rs1
		in.Imm = int64(raw >> 20)
	}
	return in, nil
}

// Encode produces the 32-bit word for a decoded instruction. It is the
// inverse of Decode for every supported operation.
func Encode(in Instr) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= opMax {
		return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	e := &insts[in.Op]
	rd := uint32(in.Rd) & 0x1f << 7
	rs1 := uint32(in.Rs1) & 0x1f << 15
	rs2 := uint32(in.Rs2) & 0x1f << 20
	imm := uint32(in.Imm)
	switch e.format {
	case FmtR:
		return e.bits | rs2 | rs1 | rd, nil
	case FmtI, FmtLoad:
		if err := checkSigned(in.Imm, 12, in.Op); err != nil {
			return 0, err
		}
		return e.bits | imm<<20 | rs1 | rd, nil
	case FmtShift:
		if in.Imm < 0 || in.Imm >= 1<<shamtBits(e.bits) {
			return 0, fmt.Errorf("isa: %s shift amount %d out of range", in.Op, in.Imm)
		}
		return e.bits | imm<<20 | rs1 | rd, nil
	case FmtStore:
		if err := checkSigned(in.Imm, 12, in.Op); err != nil {
			return 0, err
		}
		return e.bits | (imm>>5)<<25 | rs2 | rs1 | (imm&0x1f)<<7, nil
	case FmtBranch:
		if err := checkSigned(in.Imm, 13, in.Op); err != nil {
			return 0, err
		}
		if in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: branch offset must be even")
		}
		return e.bits | (imm>>12&1)<<31 | (imm>>5&0x3f)<<25 | rs2 | rs1 | (imm>>1&0xf)<<8 | (imm>>11&1)<<7, nil
	case FmtU:
		if in.Imm&0xfff != 0 {
			return 0, fmt.Errorf("isa: %s immediate %#x has low bits set", in.Op, in.Imm)
		}
		if err := checkSigned(in.Imm>>12, 20, in.Op); err != nil {
			return 0, err
		}
		return e.bits | imm&0xfffff000 | rd, nil
	case FmtJ:
		if err := checkSigned(in.Imm, 21, in.Op); err != nil {
			return 0, err
		}
		if in.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: JAL offset must be even")
		}
		return e.bits | (imm>>20&1)<<31 | (imm>>1&0x3ff)<<21 | (imm>>11&1)<<20 | (imm>>12&0xff)<<12 | rd, nil
	case FmtCSR:
		if in.Imm < 0 || in.Imm > 0xfff {
			return 0, fmt.Errorf("isa: CSR number %#x out of range", in.Imm)
		}
		return e.bits | imm<<20 | rs1 | rd, nil
	}
	return e.bits, nil // FmtNone
}

// checkSigned reports whether v fits a `bits`-wide signed immediate.
func checkSigned(v int64, bits uint, op Op) error {
	min := -(int64(1) << (bits - 1))
	max := int64(1)<<(bits-1) - 1
	if v < min || v > max {
		return fmt.Errorf("isa: %s immediate %d out of %d-bit signed range", op, v, bits)
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
