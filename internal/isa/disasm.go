package isa

import "fmt"

// Disassemble renders a decoded instruction in assembler syntax, used by
// instruction tracing (the role of spike -l) and masm -d.
func Disassemble(in Instr) string {
	rd, rs1, rs2 := RegName(in.Rd), RegName(in.Rs1), RegName(in.Rs2)
	switch in.Op.Format() {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, rd, rs1, rs2)
	case FmtI, FmtShift:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, rd, rs1, in.Imm)
	case FmtLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, rd, in.Imm, rs1)
	case FmtStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, rs2, in.Imm, rs1)
	case FmtBranch:
		return fmt.Sprintf("%s %s, %s, %+d", in.Op, rs1, rs2, in.Imm)
	case FmtU:
		return fmt.Sprintf("%s %s, %#x", in.Op, rd, uint64(in.Imm)>>12&0xfffff)
	case FmtJ:
		return fmt.Sprintf("%s %s, %+d", in.Op, rd, in.Imm)
	case FmtCSR:
		return fmt.Sprintf("%s %s, %#x, %s", in.Op, rd, in.Imm, rs1)
	}
	return in.Op.String() // FmtNone
}

// DisassembleExecutable renders the text segment of an executable, one
// line per word: "addr: raw  mnemonic".
func DisassembleExecutable(e *Executable) []string {
	var out []string
	for _, seg := range e.Segments {
		if e.Entry < seg.Addr || e.Entry >= seg.Addr+uint64(len(seg.Data)) {
			continue
		}
		for i := 0; i+4 <= len(seg.Data); i += 4 {
			raw := uint32(seg.Data[i]) | uint32(seg.Data[i+1])<<8 |
				uint32(seg.Data[i+2])<<16 | uint32(seg.Data[i+3])<<24
			addr := seg.Addr + uint64(i)
			in, err := Decode(raw)
			if err != nil {
				out = append(out, fmt.Sprintf("%08x: %08x  .word %#x", addr, raw, raw))
				continue
			}
			out = append(out, fmt.Sprintf("%08x: %08x  %s", addr, raw, Disassemble(in)))
		}
	}
	return out
}
