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
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"firemarshal/internal/isa"
)

// Options controls assembly.
type Options struct {
	// TextBase is the load address of the .text section (default 0x10000).
	TextBase uint64
}

// DefaultTextBase is where guest programs load unless overridden.
const DefaultTextBase = 0x10000

// maxSection bounds a section's size. .space is the one directive whose
// output is not bounded by the source's own length, and a few bytes of
// source must not make Assemble allocate gigabytes.
const maxSection = 64 << 20

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
	line   int // the directive's line: an item may span many
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

// parse walks the source once, a line at a time, without splitting it.
func (a *assembler) parse(src string) error {
	sec := secText
	for lineNo := 1; ; lineNo++ {
		line, rest, more := strings.Cut(src, "\n")
		var err error
		if sec, err = a.parseLine(line, lineNo, sec); err != nil {
			return err
		}
		if !more {
			return nil
		}
		src = rest
	}
}

func (a *assembler) parseLine(line string, lineNo int, sec section) (section, error) {
	line = strings.TrimSpace(stripComment(line))
	// Labels (possibly several, possibly followed by a statement).
	for {
		idx := strings.IndexByte(line, ':')
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
		return sec, nil
	}
	if line[0] == '.' {
		return a.parseDirective(line, lineNo, sec)
	}
	mnem, ops, err := splitStatement(line, lineNo)
	if err != nil {
		return sec, err
	}
	if sec != secText {
		return sec, errf(lineNo, "instruction %q outside .text", mnem)
	}
	a.items = append(a.items, &item{line: lineNo, sec: sec, mnem: mnem, ops: ops, align: -1})
	return sec, nil
}

// codeIndex returns the index of the first c1 or c2 in s that lies outside
// every character ('c') and string ("s") literal, or -1. Inside a literal
// a backslash escapes the byte after it; an unterminated literal runs to
// the end of s. Comment stripping, operand splitting and data-field
// splitting all scan with it, so a '#', "//" or ',' inside a literal is
// never taken for syntax.
func codeIndex(s string, c1, c2 byte) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\'':
			for i++; i < len(s) && s[i] != c; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case c1, c2:
			return i
		}
	}
	return -1
}

func stripComment(line string) string {
	for i := 0; ; i++ {
		j := codeIndex(line[i:], '#', '/')
		if j < 0 {
			return line
		}
		i += j
		if line[i] == '#' || i+1 < len(line) && line[i+1] == '/' {
			return line[:i]
		}
	}
}

// cutField cuts s around its first comma outside a literal.
func cutField(s string) (field, rest string, found bool) {
	if i := codeIndex(s, ',', ','); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !isIdentStart(c) && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// isIdentStart reports whether c can begin an identifier; an integer
// literal never begins with one.
func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
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
	for more := true; more; {
		var op string
		op, rest, more = cutField(rest)
		if op = strings.TrimSpace(op); op == "" {
			return "", nil, errf(lineNo, "empty operand in %q", line)
		}
		ops = append(ops, op)
	}
	return mnem, ops, nil
}

// dataItem returns the item a data directive at lineNo appends to: the
// last item when it holds data of the same section — no label, .align,
// .space or instruction came between — or else a new one. A run of data
// lines is one item however long; its symbol references keep their lines.
func (a *assembler) dataItem(sec section, lineNo int) *item {
	if n := len(a.items); n > 0 {
		if last := a.items[n-1]; last.sec == sec && last.data != nil {
			return last
		}
	}
	it := &item{line: lineNo, sec: sec, data: []byte{}, align: -1}
	a.items = append(a.items, it)
	return it
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
		return sec, a.parseData(name, rest, lineNo, sec)
	case ".ascii", ".asciz", ".string":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return sec, errf(lineNo, "bad string %q: %v", rest, err)
		}
		it := a.dataItem(sec, lineNo)
		it.data = append(it.data, s...)
		if name != ".ascii" {
			it.data = append(it.data, 0)
		}
		return sec, nil
	case ".equ", ".set":
		symName, val, ok := strings.Cut(rest, ",")
		symName, val = strings.TrimSpace(symName), strings.TrimSpace(val)
		if !ok || !isIdent(symName) {
			return sec, errf(lineNo, "bad %s syntax", name)
		}
		v, ok := parseInt(val)
		if !ok {
			what := "integer"
			if isCharLit(val) {
				what = "char literal"
			}
			return sec, errf(lineNo, "bad %s value: bad %s %q", name, what, val)
		}
		if old, exists := a.symbols[symName]; exists && old.defined {
			return sec, errf(lineNo, "symbol %q redefined", symName)
		}
		a.symbols[symName] = symval{addr: uint64(v), defined: true, isEqu: true}
		return sec, nil
	default:
		return sec, errf(lineNo, "unknown directive %q", name)
	}
}

// parseData parses the fields of a .byte/.half/.word/.dword/.quad line in
// place onto the data item it extends.
func (a *assembler) parseData(name, rest string, lineNo int, sec section) error {
	var width int
	switch name {
	case ".byte":
		width = 1
	case ".half":
		width = 2
	case ".word":
		width = 4
	default:
		width = 8
	}
	it := a.dataItem(sec, lineNo)
	for more := true; more; {
		var field string
		field, rest, more = cutField(rest)
		field = strings.TrimSpace(field)
		if field != "" && isIdentStart(field[0]) {
			sym, addend, ok := parseSymExpr(field)
			if !ok {
				return errf(lineNo, "bad %s value %q", name, field)
			}
			it.dataSym = append(it.dataSym, dataRef{off: len(it.data), width: width, line: lineNo, sym: sym, addend: addend})
			it.data = appendInt(it.data, 0, width)
			continue
		}
		v, ok := parseInt(field)
		if !ok {
			return errf(lineNo, "bad %s value %q", name, field)
		}
		it.data = appendInt(it.data, v, width)
	}
	return nil
}

func appendInt(b []byte, v int64, width int) []byte {
	for i := 0; i < width; i++ {
		b = append(b, byte(uint64(v)>>(8*i)))
	}
	return b
}

func putInt(b []byte, v int64, width int) {
	for i := 0; i < width; i++ {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}

func isCharLit(s string) bool {
	return len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\''
}

// parseInt parses an integer literal the way strconv.ParseInt(s, 0, 64)
// does — decimal, 0x hex, 0o or leading-0 octal, 0b binary, an optional
// sign, underscores between digits — or an unsigned one up to 1<<64-1,
// or a character literal ('c', one byte after escapes). It reports
// failure without allocating: data fields and operands try it on every
// field, and the caller that reports a failure builds the message.
func parseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if isCharLit(s) {
		v, multibyte, tail, err := strconv.UnquoteChar(s[1:len(s)-1], '\'')
		if err != nil || tail != "" || multibyte && v >= utf8.RuneSelf {
			return 0, false
		}
		return int64(v), true
	}
	if s == "" {
		return 0, false
	}
	switch s[0] {
	case '+':
		u, ok := parseUint(s[1:])
		return int64(u), ok && u <= math.MaxInt64
	case '-':
		u, ok := parseUint(s[1:])
		return -int64(u), ok && u <= 1<<63
	}
	u, ok := parseUint(s)
	return int64(u), ok
}

// parseUint is strconv.ParseUint(s, 0, 64) without the error value. An
// underscore must sit between two digits, or between the base prefix (or
// an octal literal's leading 0) and a digit.
func parseUint(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	body, base := s, uint64(10)
	if s[0] == '0' {
		base, body = 8, s[1:]
		if len(s) >= 3 {
			switch s[1] | 0x20 {
			case 'b':
				base, body = 2, s[2:]
			case 'o':
				base, body = 8, s[2:]
			case 'x':
				base, body = 16, s[2:]
			}
		}
	}
	var n uint64
	afterDigit := len(body) < len(s) // a prefix or leading 0 counts as a digit
	for i := 0; i < len(body); i++ {
		c := body[i]
		var d uint64
		switch {
		case c == '_':
			if !afterDigit {
				return 0, false
			}
			afterDigit = false
			continue
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c|0x20 && c|0x20 <= 'z':
			d = uint64(c|0x20-'a') + 10
		default:
			return 0, false
		}
		if d >= base || n > (math.MaxUint64-d)/base {
			return 0, false
		}
		n = n*base + d
		afterDigit = true
	}
	return n, afterDigit
}

// parseSymExpr parses "sym", "sym+N", or "sym-N".
func parseSymExpr(s string) (string, int64, bool) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			sym := strings.TrimSpace(s[:i])
			if !isIdent(sym) {
				break
			}
			off, ok := parseInt(s[i+1:])
			if s[i] == '-' {
				off = -off
			}
			return sym, off, ok
		}
	}
	return s, 0, isIdent(s)
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

func (a *assembler) emit() (*isa.Executable, error) {
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

	var text, data []byte
	for _, it := range a.items {
		buf, base := &text, textBase
		if it.sec == secData {
			buf, base = &data, dataBase
		}
		switch {
		case it.mnem != "":
			words, err := a.encodeInstr(it)
			if err != nil {
				return nil, err
			}
			b := place(buf, it.addr-base, 4*len(words))
			for i, w := range words {
				putInt(b[4*i:], int64(w), 4)
			}
		case it.data != nil:
			b := place(buf, it.addr-base, len(it.data))
			copy(b, it.data)
			for _, ref := range it.dataSym {
				sym, ok := a.symbols[ref.sym]
				if !ok || !sym.defined {
					return nil, errf(ref.line, "undefined symbol %q", ref.sym)
				}
				putInt(b[ref.off:], int64(sym.addr)+ref.addend, ref.width)
			}
		case it.space > 0:
			place(buf, it.addr-base, it.space)
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

// place cuts or zero-pads *buf to off, extends it by n zero bytes and
// returns those n bytes for the caller to fill.
func place(buf *[]byte, off uint64, n int) []byte {
	b := *buf
	if off > uint64(len(b)) {
		b = append(b, make([]byte, off-uint64(len(b)))...)
	}
	b = append(b[:off], make([]byte, n)...)
	*buf = b
	return b[off:]
}
