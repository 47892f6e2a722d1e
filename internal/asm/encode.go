package asm

import (
	"fmt"
	"strings"

	"firemarshal/internal/isa"
)

// instrSize returns how many 32-bit words the (possibly pseudo) instruction
// occupies. Pass 1 and pass 2 must agree, so pseudo expansion sizes are
// computed from operand values alone.
func (a *assembler) instrSize(it *item) (int, error) {
	switch it.mnem {
	case "li":
		if len(it.ops) != 2 {
			return 0, errf(it.line, "li needs 2 operands")
		}
		v, err := a.constOperand(it.ops[1], it.line)
		if err != nil {
			return 0, err
		}
		return len(liExpansion(0, v)), nil
	case "la", "call":
		return 2, nil
	}
	return 1, nil
}

// encodeInstr produces the instruction word(s) for an item at its final
// address, with all symbols resolved.
func (a *assembler) encodeInstr(it *item) ([]uint32, error) {
	instrs, err := a.expand(it)
	if err != nil {
		return nil, err
	}
	words := make([]uint32, 0, len(instrs))
	for _, in := range instrs {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, errf(it.line, "%v", err)
		}
		words = append(words, w)
	}
	if len(words)*4 != it.size {
		return nil, errf(it.line, "internal: pass size mismatch (%d != %d)", len(words)*4, it.size)
	}
	return words, nil
}

// regOperand parses a register name or xN form.
func regOperand(op string, line int) (uint8, error) {
	if r, ok := isa.RegNames[op]; ok {
		return r, nil
	}
	if strings.HasPrefix(op, "x") {
		var n int
		if _, err := fmt.Sscanf(op, "x%d", &n); err == nil && n >= 0 && n < 32 {
			return uint8(n), nil
		}
	}
	return 0, errf(line, "bad register %q", op)
}

// constOperand resolves an operand that must be a constant: an integer
// literal or an .equ symbol.
func (a *assembler) constOperand(op string, line int) (int64, error) {
	if v, ok := parseInt(op); ok {
		return v, nil
	}
	if sv, ok := a.symbols[op]; ok && sv.defined && sv.isEqu {
		return int64(sv.addr), nil
	}
	return 0, errf(line, "expected constant, got %q", op)
}

// immOperand resolves an immediate: integer literal, .equ constant, or
// (for data addressing contexts) a defined symbol.
func (a *assembler) immOperand(op string, line int) (int64, error) {
	if v, ok := parseInt(op); ok {
		return v, nil
	}
	if sym, addend, ok := parseSymExpr(op); ok {
		if sv, ok := a.symbols[sym]; ok && sv.defined {
			return int64(sv.addr) + addend, nil
		}
	}
	return 0, errf(line, "cannot resolve immediate %q", op)
}

// branchTarget resolves a label to a pc-relative offset.
func (a *assembler) branchTarget(op string, pc uint64, line int) (int64, error) {
	if v, ok := parseInt(op); ok {
		return v, nil // raw offset
	}
	sym, addend, ok := parseSymExpr(op)
	if !ok {
		return 0, errf(line, "bad branch target %q", op)
	}
	sv, ok := a.symbols[sym]
	if !ok || !sv.defined {
		return 0, errf(line, "undefined symbol %q", sym)
	}
	return int64(sv.addr) + addend - int64(pc), nil
}

// memOperand parses "off(reg)" or "(reg)".
func (a *assembler) memOperand(op string, line int) (int64, uint8, error) {
	open := strings.Index(op, "(")
	if open < 0 || !strings.HasSuffix(op, ")") {
		return 0, 0, errf(line, "bad memory operand %q (want off(reg))", op)
	}
	offStr := strings.TrimSpace(op[:open])
	regStr := strings.TrimSpace(op[open+1 : len(op)-1])
	var off int64
	if offStr != "" {
		v, err := a.constOperand(offStr, line)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	reg, err := regOperand(regStr, line)
	if err != nil {
		return 0, 0, err
	}
	return off, reg, nil
}

// liExpansion returns the canonical instruction sequence that materializes v
// into rd. The sequence length depends only on v.
func liExpansion(rd uint8, v int64) []isa.Instr {
	if v >= -2048 && v <= 2047 {
		return []isa.Instr{{Op: isa.OpADDI, Rd: rd, Rs1: 0, Imm: v}}
	}
	// lui+addi covers values where sign-extension works out: v must equal
	// signext32(hi<<12) + lo.
	lo := int64(int32(uint32(v)<<20)) >> 20 // sign-extended low 12 bits
	hi := v - lo
	if hi >= -(1<<31) && hi < 1<<31 && int64(int32(hi)) == hi {
		seq := []isa.Instr{{Op: isa.OpLUI, Rd: rd, Imm: int64(int32(hi))}}
		if lo != 0 {
			seq = append(seq, isa.Instr{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: lo})
		}
		return seq
	}
	// General 64-bit: materialize the upper part, shift by 12, add low 12
	// bits; recurse.
	lo12 := (v << 52) >> 52
	rest := (v - lo12) >> 12
	seq := liExpansion(rd, rest)
	seq = append(seq, isa.Instr{Op: isa.OpSLLI, Rd: rd, Rs1: rd, Imm: 12})
	if lo12 != 0 {
		seq = append(seq, isa.Instr{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: lo12})
	}
	return seq
}

// syntax is how each instruction format writes its operands, one letter per
// operand naming the Instr field it fills:
//
//	d s t  a register, into Rd / Rs1 / Rs2
//	c      a constant, into Imm
//	u      the upper 20 bits of Imm, signed or (as Disassemble prints) unsigned
//	m      off(reg), into Imm and Rs1
//	j      jalr's target: off(reg), or a bare register meaning 0(reg)
//	b      a label or raw offset, pc-relative, into Imm
//	a      a label or address, absolute, into Imm
var syntax = [...]string{
	isa.FmtNone:   "",
	isa.FmtR:      "dst",
	isa.FmtI:      "dsc",
	isa.FmtShift:  "dsc",
	isa.FmtLoad:   "dm",
	isa.FmtStore:  "tm",
	isa.FmtBranch: "stb",
	isa.FmtU:      "du",
	isa.FmtJ:      "db",
	isa.FmtCSR:    "dcs",
}

// aliases are the pseudo-ops that are one real instruction with some fields
// fixed: the operands fill the fields syntax names, the rest come from in
// (zero meaning the zero register or a zero immediate).
var aliases = map[string]struct {
	syntax string
	in     isa.Instr
}{
	"nop":    {"", isa.Instr{Op: isa.OpADDI}},
	"mv":     {"ds", isa.Instr{Op: isa.OpADDI}},
	"not":    {"ds", isa.Instr{Op: isa.OpXORI, Imm: -1}},
	"sext.w": {"ds", isa.Instr{Op: isa.OpADDIW}},
	"seqz":   {"ds", isa.Instr{Op: isa.OpSLTIU, Imm: 1}},
	"sltz":   {"ds", isa.Instr{Op: isa.OpSLT}},
	"neg":    {"dt", isa.Instr{Op: isa.OpSUB}},
	"negw":   {"dt", isa.Instr{Op: isa.OpSUBW}},
	"snez":   {"dt", isa.Instr{Op: isa.OpSLTU}},
	"sgtz":   {"dt", isa.Instr{Op: isa.OpSLT}},

	"beqz": {"sb", isa.Instr{Op: isa.OpBEQ}},
	"bnez": {"sb", isa.Instr{Op: isa.OpBNE}},
	"bgez": {"sb", isa.Instr{Op: isa.OpBGE}},
	"bltz": {"sb", isa.Instr{Op: isa.OpBLT}},
	"blez": {"tb", isa.Instr{Op: isa.OpBGE}},
	"bgtz": {"tb", isa.Instr{Op: isa.OpBLT}},
	"bgt":  {"tsb", isa.Instr{Op: isa.OpBLT}},
	"ble":  {"tsb", isa.Instr{Op: isa.OpBGE}},
	"bgtu": {"tsb", isa.Instr{Op: isa.OpBLTU}},
	"bleu": {"tsb", isa.Instr{Op: isa.OpBGEU}},

	"j":   {"b", isa.Instr{Op: isa.OpJAL}},
	"jr":  {"s", isa.Instr{Op: isa.OpJALR}},
	"ret": {"", isa.Instr{Op: isa.OpJALR, Rs1: 1}},

	"rdcycle":   {"d", isa.Instr{Op: isa.OpCSRRS, Imm: isa.CSRCycle}},
	"rdtime":    {"d", isa.Instr{Op: isa.OpCSRRS, Imm: isa.CSRTime}},
	"rdinstret": {"d", isa.Instr{Op: isa.OpCSRRS, Imm: isa.CSRInstret}},
	"csrr":      {"dc", isa.Instr{Op: isa.OpCSRRS}},
	"csrw":      {"cs", isa.Instr{Op: isa.OpCSRRW}},
}

// operands parses the statement's operands against a syntax string into the
// fields of in.
func (a *assembler) operands(it *item, syn string, in isa.Instr) (isa.Instr, error) {
	if len(it.ops) != len(syn) {
		return in, errf(it.line, "%s needs %d operands, got %d", it.mnem, len(syn), len(it.ops))
	}
	for i, op := range it.ops {
		var err error
		switch syn[i] {
		case 'd':
			in.Rd, err = regOperand(op, it.line)
		case 's':
			in.Rs1, err = regOperand(op, it.line)
		case 't':
			in.Rs2, err = regOperand(op, it.line)
		case 'c':
			in.Imm, err = a.constOperand(op, it.line)
		case 'u':
			in.Imm, err = a.constOperand(op, it.line)
			if in.Imm >= 1<<19 && in.Imm < 1<<20 {
				in.Imm -= 1 << 20
			}
			in.Imm <<= 12
		case 'm':
			in.Imm, in.Rs1, err = a.memOperand(op, it.line)
		case 'j':
			if in.Imm, in.Rs1, err = a.memOperand(op, it.line); err != nil {
				in.Imm = 0
				in.Rs1, err = regOperand(op, it.line)
			}
		case 'b':
			in.Imm, err = a.branchTarget(op, it.addr, it.line)
		case 'a':
			in.Imm, err = a.immOperand(op, it.line)
		}
		if err != nil {
			return in, err
		}
	}
	return in, nil
}

// expand translates one statement into real instructions: a table row for
// every real instruction and one-instruction alias, code only for the
// multi-instruction pseudo-ops and the optional operands of jal and jalr.
func (a *assembler) expand(it *item) ([]isa.Instr, error) {
	one := func(syn string, in isa.Instr) ([]isa.Instr, error) {
		in, err := a.operands(it, syn, in)
		if err != nil {
			return nil, err
		}
		return []isa.Instr{in}, nil
	}
	switch it.mnem {
	case "jal": // "jal label" links through ra
		if len(it.ops) == 1 {
			return one("b", isa.Instr{Op: isa.OpJAL, Rd: 1})
		}
	case "jalr": // and so does "jalr target"
		if len(it.ops) == 1 {
			return one("j", isa.Instr{Op: isa.OpJALR, Rd: 1})
		}
		return one("dj", isa.Instr{Op: isa.OpJALR})
	case "li":
		in, err := a.operands(it, "dc", isa.Instr{})
		if err != nil {
			return nil, err
		}
		return liExpansion(in.Rd, in.Imm), nil
	case "la":
		in, err := a.operands(it, "da", isa.Instr{})
		if err != nil {
			return nil, err
		}
		hi, lo := splitHiLo(in.Imm - int64(it.addr))
		return []isa.Instr{
			{Op: isa.OpAUIPC, Rd: in.Rd, Imm: hi},
			{Op: isa.OpADDI, Rd: in.Rd, Rs1: in.Rd, Imm: lo},
		}, nil
	case "call":
		// auipc ra, hi ; jalr ra, lo(ra) — reaches ±2GiB.
		in, err := a.operands(it, "b", isa.Instr{})
		if err != nil {
			return nil, err
		}
		hi, lo := splitHiLo(in.Imm)
		return []isa.Instr{
			{Op: isa.OpAUIPC, Rd: 1, Imm: hi},
			{Op: isa.OpJALR, Rd: 1, Rs1: 1, Imm: lo},
		}, nil
	}
	if al, ok := aliases[it.mnem]; ok {
		return one(al.syntax, al.in)
	}
	if op, ok := isa.OpByName(it.mnem); ok {
		return one(syntax[op.Format()], isa.Instr{Op: op})
	}
	return nil, errf(it.line, "unknown instruction %q", it.mnem)
}

// splitHiLo splits a 32-bit pc-relative delta into AUIPC/ADDI halves.
func splitHiLo(delta int64) (hi, lo int64) {
	lo = (delta << 52) >> 52
	hi = delta - lo
	return hi, lo
}
