// Package asm implements a two-pass assembler for the RV64IM subset defined
// in internal/isa. It fills the role of the cross-compilation toolchain in a
// real FireMarshal flow (invoked from host-init scripts, §IV-A): workload
// sources are assembly files, and the assembler produces deterministic MEX1
// executables that are embedded into filesystem images.
//
// Supported syntax:
//
//	label:                      # labels
//	.text / .data               # sections
//	.globl sym                  # export (entry point is _start)
//	.align N                    # align to 2^N bytes
//	.space N                    # N zero bytes
//	.byte/.half/.word/.dword    # data values (integers or symbols)
//	.ascii/.asciz "str"         # string data
//	.equ name, value            # assembler constants
//	add rd, rs1, rs2            # every isa op, written as isa.Disassemble
//	                            # prints it, plus standard pseudo-ops:
//	li, la, call, nop, mv, not, neg, negw, sext.w, seqz, snez, sltz, sgtz,
//	j, jr, ret, beqz, bnez, blez, bgez, bltz, bgtz, bgt, ble, bgtu, bleu,
//	rdcycle, rdtime, rdinstret, csrr, csrw
//
// Comments start with '#' or '//'.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"firemarshal/internal/isa"
)

// Options controls assembly.
type Options struct {
	// TextBase is the load address of the .text section (default 0x10000).
	TextBase uint64
}

// DefaultTextBase is where guest programs load unless overridden.
const DefaultTextBase = 0x10000

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble assembles source text into an executable.
func Assemble(src string, opts Options) (*isa.Executable, error) {
	if opts.TextBase == 0 {
		opts.TextBase = DefaultTextBase
	}
	a := &assembler{opts: opts, symbols: map[string]symval{}}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	return a.emit()
}

type section int

const (
	secText section = iota
	secData
)

// item is one assembled unit: an instruction statement or a data directive.
type item struct {
	line    int
	sec     section
	label   string   // set when the item is a label definition
	mnem    string   // instruction mnemonic (empty for pure data/labels)
	ops     []string // operand strings
	data    []byte   // literal data bytes (for .byte/.ascii/...)
	dataSym []dataRef
	align   int // .align exponent (-1 when unused)
	space   int // .space size (0 when unused)
	size    int // bytes occupied, fixed in layout()
	addr    uint64
}

// dataRef is a symbol reference inside a data directive.
type dataRef struct {
	off    int // byte offset within item data
	width  int
	sym    string
	addend int64
}

type symval struct {
	addr    uint64
	defined bool
	isEqu   bool
}

type assembler struct {
	opts    Options
	items   []*item
	symbols map[string]symval
	globals []string
}

// ---------- pass 0: parsing ----------

func (a *assembler) parse(src string) error {
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
			a.items = append(a.items, &item{line: lineNo, sec: sec, label: head, align: -1})
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
		a.items = append(a.items, &item{line: lineNo, sec: sec, mnem: mnem, ops: ops, align: -1})
	}
	return nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' && (i == 0 || line[i-1] != '\\') {
			inStr = !inStr
		}
		if inStr {
			continue
		}
		if c == '#' {
			return line[:i]
		}
		if c == '/' && i+1 < len(line) && line[i+1] == '/' {
			return line[:i]
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || r == '$' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func splitStatement(line string, lineNo int) (string, []string, error) {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return strings.ToLower(line), nil, nil
	}
	mnem := strings.ToLower(line[:sp])
	rest := strings.TrimSpace(line[sp+1:])
	if rest == "" {
		return mnem, nil, nil
	}
	var ops []string
	inQuote := byte(0)
	last := 0
	flush := func(end int) error {
		op := strings.TrimSpace(rest[last:end])
		if op == "" {
			return errf(lineNo, "empty operand in %q", line)
		}
		ops = append(ops, op)
		return nil
	}
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case inQuote != 0:
			if c == inQuote && (inQuote != '"' || rest[i-1] != '\\') {
				inQuote = 0
			}
		case c == '\'' || c == '"':
			inQuote = c
		case c == ',':
			if err := flush(i); err != nil {
				return "", nil, err
			}
			last = i + 1
		}
	}
	if err := flush(len(rest)); err != nil {
		return "", nil, err
	}
	return mnem, ops, nil
}

func (a *assembler) parseDirective(line string, lineNo int, sec section) (section, error) {
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
		a.items = append(a.items, &item{line: lineNo, sec: sec, align: n})
		return sec, nil
	case ".space", ".skip":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return sec, errf(lineNo, "bad .space size %q", rest)
		}
		a.items = append(a.items, &item{line: lineNo, sec: sec, space: n, align: -1})
		return sec, nil
	case ".byte", ".half", ".word", ".dword", ".quad":
		width := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".dword": 8, ".quad": 8}[name]
		it := &item{line: lineNo, sec: sec, align: -1}
		for _, field := range strings.Split(rest, ",") {
			field = strings.TrimSpace(field)
			if v, err := parseInt(field); err == nil {
				it.data = appendInt(it.data, v, width)
			} else if sym, addend, serr := parseSymExpr(field); serr == nil {
				it.dataSym = append(it.dataSym, dataRef{off: len(it.data), width: width, sym: sym, addend: addend})
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
		a.items = append(a.items, &item{line: lineNo, sec: sec, data: data, align: -1})
		return sec, nil
	case ".equ", ".set":
		parts := strings.SplitN(rest, ",", 2)
		if len(parts) != 2 || !isIdent(strings.TrimSpace(parts[0])) {
			return sec, errf(lineNo, "bad %s syntax", name)
		}
		v, err := parseInt(strings.TrimSpace(parts[1]))
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

func appendInt(b []byte, v int64, width int) []byte {
	for i := 0; i < width; i++ {
		b = append(b, byte(uint64(v)>>(8*i)))
	}
	return b
}

// parseInt parses decimal, hex (0x), octal (0o), binary (0b), and character
// ('c') literals with an optional leading minus.
func parseInt(s string) (int64, error) {
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

// parseSymExpr parses "sym", "sym+N", or "sym-N".
func parseSymExpr(s string) (string, int64, error) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			sym := strings.TrimSpace(s[:i])
			if !isIdent(sym) {
				break
			}
			off, err := parseInt(s[i+1:])
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

func (a *assembler) layout() error {
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

func (a *assembler) emit() (*isa.Executable, error) {
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
