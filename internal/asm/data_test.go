package asm

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// chaseTable returns a program whose data is n ".dword chain+off" lines
// in a seeded random order: the pointer-chase table workgen emits, and
// the shape that dominates assembling a generated workload.
func chaseTable(n int) string {
	var b strings.Builder
	b.WriteString("_start:\n    la t1, chain\n    ld t1, 0(t1)\n    ecall\n.data\n    .align 3\nchain:\n")
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		b.WriteString("    .dword chain+" + strconv.Itoa(8*i) + "\n")
	}
	return b.String()
}

// A data table assembles without allocating per line: its lines extend
// one item, their fields are parsed in place, and emit patches each
// symbol reference into the output where it lies.
func TestAssembleDataAllocs(t *testing.T) {
	const lines = 4096
	src := chaseTable(lines)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Assemble(src, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / lines; per >= 0.1 {
		t.Errorf("%.0f allocations for %d data lines (%.2f per line), want under 0.1 per line", allocs, lines, per)
	}
}

func BenchmarkAssembleChaseTable(b *testing.B) {
	src := chaseTable(64 << 10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Literals are opaque to the lexer: a '#', "//" or ',' inside a character
// or string literal is neither a comment nor a separator, and an escaped
// backslash does not escape the quote after it.
func TestLiteralsAreNotSyntax(t *testing.T) {
	for _, tc := range []struct {
		src  string
		data string // the data segment, when the statement is data
		imm  int64  // else li's value
	}{
		{src: "li a0, '#'", imm: '#'},
		{src: "li a0, '#' # note", imm: '#'},
		{src: "li a0, ','", imm: ','},
		{src: "li a0, '/' // note", imm: '/'},
		{src: `li a0, '\''`, imm: '\''},
		{src: `li a0, '"'`, imm: '"'},
		{src: ".byte '#'", data: "#"},
		{src: ".byte ','", data: ","},
		{src: ".byte ',', '#', 1", data: ",#\x01"},
		{src: `.byte '"', 2`, data: "\"\x02"},
		{src: `.ascii "a\\" # note`, data: `a\`},
		{src: `.ascii "a#b,c//d"`, data: "a#b,c//d"},
		{src: `.asciz "q\"#"  // note`, data: "q\"#\x00"},
	} {
		var src string
		if tc.data != "" {
			src = "_start:\n    ecall\n.data\n    " + tc.src + "\n"
		} else {
			src = "_start:\n    " + tc.src + "\n"
		}
		exe, err := Assemble(src, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if tc.data != "" {
			if got := string(exe.Segments[1].Data); got != tc.data {
				t.Errorf("%s: data %q, want %q", tc.src, got, tc.data)
			}
		} else if in := textWords(t, exe)[0]; in.Imm != tc.imm {
			t.Errorf("%s: li %d, want %d", tc.src, in.Imm, tc.imm)
		}
	}
}

// parseInt reads every literal exactly as the strconv-based parser it
// replaced did: every string of up to four bytes over an alphabet of
// digits, base letters, signs, underscores and quotes.
func TestParseIntMatchesReference(t *testing.T) {
	const alphabet = "019aAbBfoxX_+-'\\ "
	var walk func(s string)
	walk = func(s string) {
		v, ok := parseInt(s)
		want, err := refParseInt(s)
		if ok != (err == nil) || ok && v != want {
			t.Errorf("parseInt(%q) = %d, %v; reference %d, %v", s, v, ok, want, err)
		}
		if len(s) < 4 {
			for i := 0; i < len(alphabet); i++ {
				walk(s + alphabet[i:i+1])
			}
		}
	}
	walk("")
	for _, s := range []string{
		"0xffffffffffffffff", "0x10000000000000000", "18446744073709551615", "18446744073709551616",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"+9223372036854775808", "0b1_0_1", "0o_7", "0_7", "0x_", "1_000_000", "'\\x41'", "'\\u0041'",
		"'\\u00e9'", "'é'", "'\\377'", "'\\''", "'\"'", "'\\\"'", "'''", "'ab'",
	} {
		walk(s)
	}
}

// A few bytes of source cannot make Assemble allocate gigabytes: .space,
// the one directive whose output the source's length does not bound, may
// not grow a section past maxSection, one directive or many.
func TestSpaceBeyondSectionLimit(t *testing.T) {
	for _, src := range []string{
		".data\nbuf: .space 999999999\n",
		".data\n" + strings.Repeat(".space 40000000\n", 2),
		"_start:\n    ecall\n    .space 67108865\n",
	} {
		if _, err := Assemble(src, Options{}); err == nil || !strings.Contains(err.Error(), "past 67108864 bytes") {
			t.Errorf("%q: err = %v, want the section limit", src, err)
		}
	}
	if _, err := Assemble(".data\nbuf: .space 67108864\n", Options{}); err != nil {
		t.Errorf("a section of exactly the limit: %v", err)
	}
}
