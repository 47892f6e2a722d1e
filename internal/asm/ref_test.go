package asm

import (
	"fmt"
	"strconv"
	"strings"

	"firemarshal/internal/isa"
)

// refAssemble is the assembler as it stood before data runs were merged
// and parsed in place: one item per line, a map per data line, parseInt
// tried first on every field and failing through strconv's errors, and an
// emit that copies every item. It is kept verbatim as the differential
// reference FuzzAssembleVsReference holds Assemble to, with two changes
// both sides share. Comments are stripped, and data fields split, by the
// literal-aware scanner (codeIndex), so both read '#', "//" and ',' inside
// literals alike. Layout stops a .space past maxSection, so neither
// allocates what a few bytes of source ask for. Both sides also share
// splitStatement, isIdent, appendInt and the instruction tables (syntax,
// aliases, liExpansion, regOperand, splitHiLo).
func refAssemble(src string, opts Options) (*isa.Executable, error) {
	if opts.TextBase == 0 {
		opts.TextBase = DefaultTextBase
	}
	a := &refAssembler{opts: opts, symbols: map[string]symval{}}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	return a.emit()
}

// refFields splits a data directive's fields with the fixed scanner.
func refFields(rest string) []string {
	var out []string
	for more := true; more; {
		var field string
		field, rest, more = cutField(rest)
		out = append(out, field)
	}
	return out
}

// refItem is one assembled unit: an instruction statement or a data directive.
type refItem struct {
	line    int
	sec     section
	label   string   // set when the refItem is a label definition
	mnem    string   // instruction mnemonic (empty for pure data/labels)
	ops     []string // operand strings
	data    []byte   // literal data bytes (for .byte/.ascii/...)
	dataSym []refDataRef
	align   int // .align exponent (-1 when unused)
	space   int // .space size (0 when unused)
	size    int // bytes occupied, fixed in layout()
	addr    uint64
}

// refDataRef is a symbol reference inside a data directive.
type refDataRef struct {
	off    int // byte offset within refItem data
	width  int
	sym    string
	addend int64
}

type refAssembler struct {
	opts    Options
	items   []*refItem
	symbols map[string]symval
	globals []string
}

// ---------- pass 0: parsing ----------

func (a *refAssembler) parse(src string) error {
	sec := secText
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several, possibly followed by a statement).
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			a.items = append(a.items, &refItem{line: lineNo, sec: sec, label: head, align: -1})
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			var err error
			sec, err = a.parseDirective(line, lineNo, sec)
			if err != nil {
				return err
			}
			continue
		}
		mnem, ops, err := splitStatement(line, lineNo)
		if err != nil {
			return err
		}
		if sec != secText {
			return errf(lineNo, "instruction %q outside .text", mnem)
		}
		a.items = append(a.items, &refItem{line: lineNo, sec: sec, mnem: mnem, ops: ops, align: -1})
	}
	return nil
}

func (a *refAssembler) parseDirective(line string, lineNo int, sec section) (section, error) {
	sp := strings.IndexAny(line, " \t")
	name := line
	rest := ""
	if sp > 0 {
		name = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	switch name {
	case ".text":
		return secText, nil
	case ".data", ".rodata", ".bss":
		return secData, nil
	case ".globl", ".global":
		if !isIdent(rest) {
			return sec, errf(lineNo, "bad symbol in %s", name)
		}
		a.globals = append(a.globals, rest)
		return sec, nil
	case ".align", ".p2align":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 || n > 12 {
			return sec, errf(lineNo, "bad alignment %q", rest)
		}
		a.items = append(a.items, &refItem{line: lineNo, sec: sec, align: n})
		return sec, nil
	case ".space", ".skip":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return sec, errf(lineNo, "bad .space size %q", rest)
		}
		a.items = append(a.items, &refItem{line: lineNo, sec: sec, space: n, align: -1})
		return sec, nil
	case ".byte", ".half", ".word", ".dword", ".quad":
		width := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".dword": 8, ".quad": 8}[name]
		it := &refItem{line: lineNo, sec: sec, align: -1}
		for _, field := range refFields(rest) {
			field = strings.TrimSpace(field)
			if v, err := refParseInt(field); err == nil {
				it.data = appendInt(it.data, v, width)
			} else if sym, addend, serr := refParseSymExpr(field); serr == nil {
				it.dataSym = append(it.dataSym, refDataRef{off: len(it.data), width: width, sym: sym, addend: addend})
				it.data = appendInt(it.data, 0, width)
			} else {
				return sec, errf(lineNo, "bad %s value %q", name, field)
			}
		}
		a.items = append(a.items, it)
		return sec, nil
	case ".ascii", ".asciz", ".string":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return sec, errf(lineNo, "bad string %q: %v", rest, err)
		}
		data := []byte(s)
		if name != ".ascii" {
			data = append(data, 0)
		}
		a.items = append(a.items, &refItem{line: lineNo, sec: sec, data: data, align: -1})
		return sec, nil
	case ".equ", ".set":
		parts := strings.SplitN(rest, ",", 2)
		if len(parts) != 2 || !isIdent(strings.TrimSpace(parts[0])) {
			return sec, errf(lineNo, "bad %s syntax", name)
		}
		v, err := refParseInt(strings.TrimSpace(parts[1]))
		if err != nil {
			return sec, errf(lineNo, "bad %s value: %v", name, err)
		}
		symName := strings.TrimSpace(parts[0])
		if old, exists := a.symbols[symName]; exists && old.defined {
			return sec, errf(lineNo, "symbol %q redefined", symName)
		}
		a.symbols[symName] = symval{addr: uint64(v), defined: true, isEqu: true}
		return sec, nil
	default:
		return sec, errf(lineNo, "unknown directive %q", name)
	}
}

// refParseInt parses decimal, hex (0x), octal (0o), binary (0b), and character
// ('c') literals with an optional leading minus.
func refParseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := strconv.Unquote(s)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(body[0]), nil
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	// Allow full-range unsigned hex (e.g. 0xffffffffffffffff).
	if u, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(u), nil
	}
	return 0, fmt.Errorf("bad integer %q", s)
}

// refParseSymExpr parses "sym", "sym+N", or "sym-N".
func refParseSymExpr(s string) (string, int64, error) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			sym := strings.TrimSpace(s[:i])
			if !isIdent(sym) {
				break
			}
			off, err := refParseInt(s[i+1:])
			if err != nil {
				return "", 0, err
			}
			if s[i] == '-' {
				off = -off
			}
			return sym, off, nil
		}
	}
	if !isIdent(s) {
		return "", 0, fmt.Errorf("bad symbol expression %q", s)
	}
	return s, 0, nil
}

// ---------- pass 1: layout ----------

func (a *refAssembler) layout() error {
	textOff, dataOff := uint64(0), uint64(0)
	// First size everything.
	for _, it := range a.items {
		off := &textOff
		if it.sec == secData {
			off = &dataOff
		}
		switch {
		case it.label != "":
			// handled below once addresses are known
		case it.align >= 0:
			align := uint64(1) << it.align
			*off = (*off + align - 1) &^ (align - 1)
		case it.space > 0:
			it.addr = *off
			it.size = it.space
			*off += uint64(it.space)
			if *off > maxSection {
				return errf(it.line, ".space grows the section past %d bytes", maxSection)
			}
		case it.data != nil:
			it.addr = *off
			it.size = len(it.data)
			*off += uint64(len(it.data))
		case it.mnem != "":
			n, err := a.instrSize(it)
			if err != nil {
				return err
			}
			it.addr = *off
			it.size = n * 4
			*off += uint64(n * 4)
		}
		if it.label != "" {
			it.addr = *off
		}
	}
	textBase := a.opts.TextBase
	// .data starts at the first 4KiB boundary after text.
	dataBase := (textBase + textOff + 0xfff) &^ 0xfff
	// Rebase and define label symbols.
	for _, it := range a.items {
		base := textBase
		if it.sec == secData {
			base = dataBase
		}
		it.addr += base
		if it.label != "" {
			if old, exists := a.symbols[it.label]; exists && old.defined {
				return errf(it.line, "symbol %q redefined", it.label)
			}
			a.symbols[it.label] = symval{addr: it.addr, defined: true}
		}
	}
	return nil
}

// ---------- pass 2: emission ----------

func (a *refAssembler) emit() (*isa.Executable, error) {
	var text, data []byte
	appendTo := func(sec section, addr uint64, b []byte, base uint64, buf *[]byte) {
		off := addr - base
		for uint64(len(*buf)) < off {
			*buf = append(*buf, 0)
		}
		*buf = append((*buf)[:off], b...)
	}
	textBase := a.opts.TextBase
	var dataBase uint64
	for _, it := range a.items {
		if it.sec == secData && (it.size > 0 || it.label != "") {
			if dataBase == 0 || it.addr < dataBase {
				dataBase = it.addr
			}
		}
	}
	if dataBase == 0 {
		dataBase = textBase // no data section
	}

	for _, it := range a.items {
		switch {
		case it.mnem != "":
			words, err := a.encodeInstr(it)
			if err != nil {
				return nil, err
			}
			var b []byte
			for _, w := range words {
				b = appendInt(b, int64(w), 4)
			}
			appendTo(it.sec, it.addr, b, textBase, &text)
		case it.data != nil:
			b := append([]byte(nil), it.data...)
			for _, ref := range it.dataSym {
				sym, ok := a.symbols[ref.sym]
				if !ok || !sym.defined {
					return nil, errf(it.line, "undefined symbol %q", ref.sym)
				}
				v := int64(sym.addr) + ref.addend
				copy(b[ref.off:], appendInt(nil, v, ref.width))
			}
			if it.sec == secText {
				appendTo(it.sec, it.addr, b, textBase, &text)
			} else {
				appendTo(it.sec, it.addr, b, dataBase, &data)
			}
		case it.space > 0:
			b := make([]byte, it.space)
			if it.sec == secText {
				appendTo(it.sec, it.addr, b, textBase, &text)
			} else {
				appendTo(it.sec, it.addr, b, dataBase, &data)
			}
		}
	}

	exe := &isa.Executable{Symbols: map[string]uint64{}}
	for name, sv := range a.symbols {
		if sv.defined && !sv.isEqu {
			exe.Symbols[name] = sv.addr
		}
	}
	if start, ok := exe.Symbols["_start"]; ok {
		exe.Entry = start
	} else {
		exe.Entry = textBase
	}
	if len(text) > 0 {
		exe.Segments = append(exe.Segments, isa.Segment{Addr: textBase, Data: text})
	}
	if len(data) > 0 {
		exe.Segments = append(exe.Segments, isa.Segment{Addr: dataBase, Data: data})
	}
	return exe, nil
}

// instrSize returns how many 32-bit words the (possibly pseudo) instruction
// occupies. Pass 1 and pass 2 must agree, so pseudo expansion sizes are
// computed from operand values alone.
func (a *refAssembler) instrSize(it *refItem) (int, error) {
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

// encodeInstr produces the instruction word(s) for an refItem at its final
// address, with all symbols resolved.
func (a *refAssembler) encodeInstr(it *refItem) ([]uint32, error) {
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

// constOperand resolves an operand that must be a constant: an integer
// literal or an .equ symbol.
func (a *refAssembler) constOperand(op string, line int) (int64, error) {
	if v, err := refParseInt(op); err == nil {
		return v, nil
	}
	if sv, ok := a.symbols[op]; ok && sv.defined && sv.isEqu {
		return int64(sv.addr), nil
	}
	return 0, errf(line, "expected constant, got %q", op)
}

// immOperand resolves an immediate: integer literal, .equ constant, or
// (for data addressing contexts) a defined symbol.
func (a *refAssembler) immOperand(op string, line int) (int64, error) {
	if v, err := refParseInt(op); err == nil {
		return v, nil
	}
	if sym, addend, err := refParseSymExpr(op); err == nil {
		if sv, ok := a.symbols[sym]; ok && sv.defined {
			return int64(sv.addr) + addend, nil
		}
	}
	return 0, errf(line, "cannot resolve immediate %q", op)
}

// branchTarget resolves a label to a pc-relative offset.
func (a *refAssembler) branchTarget(op string, pc uint64, line int) (int64, error) {
	if v, err := refParseInt(op); err == nil {
		return v, nil // raw offset
	}
	sym, addend, err := refParseSymExpr(op)
	if err != nil {
		return 0, errf(line, "bad branch target %q", op)
	}
	sv, ok := a.symbols[sym]
	if !ok || !sv.defined {
		return 0, errf(line, "undefined symbol %q", sym)
	}
	return int64(sv.addr) + addend - int64(pc), nil
}

// memOperand parses "off(reg)" or "(reg)".
func (a *refAssembler) memOperand(op string, line int) (int64, uint8, error) {
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

// operands parses the statement's operands against a syntax string into the
// fields of in.
func (a *refAssembler) operands(it *refItem, syn string, in isa.Instr) (isa.Instr, error) {
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
func (a *refAssembler) expand(it *refItem) ([]isa.Instr, error) {
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
