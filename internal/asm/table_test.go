package asm

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"firemarshal/internal/isa"
)

// word assembles one statement and returns its single instruction word.
func word(t *testing.T, stmt string) uint32 {
	t.Helper()
	exe, err := Assemble("_start:\n    "+stmt+"\n", Options{})
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	if len(exe.Segments) != 1 || len(exe.Segments[0].Data) != 4 {
		t.Fatalf("%q: want one word, got segments %+v", stmt, exe.Segments)
	}
	return binary.LittleEndian.Uint32(exe.Segments[0].Data)
}

// randomOperands fills in the fields op's format carries with random legal
// values, leaving the others zero as Decode does.
func randomOperands(rng *rand.Rand, op isa.Op) isa.Instr {
	reg := func() uint8 { return uint8(rng.Intn(32)) }
	signed := func(bits uint) int64 { return rng.Int63n(1<<bits) - 1<<(bits-1) }
	in := isa.Instr{Op: op}
	switch op.Format() {
	case isa.FmtR:
		in.Rd, in.Rs1, in.Rs2 = reg(), reg(), reg()
	case isa.FmtI, isa.FmtLoad:
		in.Rd, in.Rs1, in.Imm = reg(), reg(), signed(12)
	case isa.FmtShift:
		in.Rd, in.Rs1, in.Imm = reg(), reg(), rng.Int63n(64)
		if strings.HasSuffix(op.String(), "w") {
			in.Imm &= 31
		}
	case isa.FmtStore:
		in.Rs1, in.Rs2, in.Imm = reg(), reg(), signed(12)
	case isa.FmtBranch:
		in.Rs1, in.Rs2, in.Imm = reg(), reg(), signed(12)*2
	case isa.FmtU:
		in.Rd, in.Imm = reg(), signed(20)<<12
	case isa.FmtJ:
		in.Rd, in.Imm = reg(), signed(20)*2
	case isa.FmtCSR:
		in.Rd, in.Rs1, in.Imm = reg(), reg(), rng.Int63n(1<<12)
	}
	return in
}

// The four readers of the instruction table agree on every operation: the
// assembler turns what Disassemble prints into the word Encode produces, and
// Decode of that word is the instruction again. (Assembling Disassemble's
// output also makes every masm -d line re-assemblable.)
func TestAssembleDisassembleEncodeDecodeAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ops := 0
	for op := isa.OpInvalid + 1; ; op++ {
		if _, ok := isa.OpByName(op.String()); !ok {
			break
		}
		ops++
		for i := 0; i < 200; i++ {
			in := randomOperands(rng, op)
			want, err := isa.Encode(in)
			if err != nil {
				t.Fatalf("Encode(%+v): %v", in, err)
			}
			text := isa.Disassemble(in)
			if got := word(t, text); got != want {
				t.Fatalf("%q assembles to %#08x, Encode(%+v) = %#08x", text, got, in, want)
			}
			in.Raw = want
			if dec, err := isa.Decode(want); err != nil || dec != in {
				t.Fatalf("Decode(%#08x) = %+v, %v; want %+v (%s)", want, dec, err, in, text)
			}
		}
	}
	if ops != 66 {
		t.Errorf("walked %d operations, want 66", ops)
	}
}

// Every one-instruction pseudo-op is its expansion in the RISC-V assembly
// manual's pseudo-instruction table.
func TestAliasesMatchTheirExpansions(t *testing.T) {
	cases := map[string]string{
		"nop":               "addi zero, zero, 0",
		"mv a0, a1":         "addi a0, a1, 0",
		"not a0, a1":        "xori a0, a1, -1",
		"sext.w a0, a1":     "addiw a0, a1, 0",
		"seqz a0, a1":       "sltiu a0, a1, 1",
		"sltz a0, a1":       "slt a0, a1, zero",
		"neg a0, a1":        "sub a0, zero, a1",
		"negw a0, a1":       "subw a0, zero, a1",
		"snez a0, a1":       "sltu a0, zero, a1",
		"sgtz a0, a1":       "slt a0, zero, a1",
		"beqz a0, +8":       "beq a0, zero, +8",
		"bnez a0, -8":       "bne a0, zero, -8",
		"bgez a0, +8":       "bge a0, zero, +8",
		"bltz a0, +8":       "blt a0, zero, +8",
		"blez a0, +8":       "bge zero, a0, +8",
		"bgtz a0, +8":       "blt zero, a0, +8",
		"bgt a0, a1, +8":    "blt a1, a0, +8",
		"ble a0, a1, +8":    "bge a1, a0, +8",
		"bgtu a0, a1, +8":   "bltu a1, a0, +8",
		"bleu a0, a1, -8":   "bgeu a1, a0, -8",
		"j +16":             "jal zero, +16",
		"jal +16":           "jal ra, +16",
		"jr a0":             "jalr zero, 0(a0)",
		"jalr a0":           "jalr ra, 0(a0)",
		"jalr 8(a0)":        "jalr ra, 8(a0)",
		"jalr t0, a0":       "jalr t0, 0(a0)",
		"ret":               "jalr zero, 0(ra)",
		"rdcycle a0":        "csrrs a0, 0xc00, zero",
		"rdtime a0":         "csrrs a0, 0xc01, zero",
		"rdinstret a0":      "csrrs a0, 0xc02, zero",
		"csrr a0, 0xf14":    "csrrs a0, 0xf14, zero",
		"csrw 0x340, a0":    "csrrw zero, 0x340, a0",
		"lui a0, 0xfffff":   "lui a0, -1",
		"auipc a0, 0x80000": "auipc a0, -0x80000",
	}
	for alias, canonical := range cases {
		if got, want := word(t, alias), word(t, canonical); got != want {
			t.Errorf("%q = %#08x, %q = %#08x", alias, got, canonical, want)
		}
	}
	for _, bad := range []string{"lui a0, 0x100000", "lui a0, -0x80001", "ret a0", "nop 1", "csrrs a0, 0x1000, zero"} {
		if _, err := Assemble("_start:\n    "+bad+"\n", Options{}); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

// A disassembly listing (masm -d) assembles back to the text it came from.
func TestDisassemblyReassembles(t *testing.T) {
	exe := assemble(t, `
_start:
    li   s0, 0x123456789
    la   a1, buf
    csrr t0, 0xf14
    rdcycle t1
loop:
    lbu  a2, 0(a1)
    addi a1, a1, 1
    bnez a2, loop
    call fn
    lui  a3, 0xfffff
    csrw 0x340, a3
    ebreak
    fence
    ecall
fn:
    mulw a0, a0, a2
    ret
.data
buf: .asciz "hi"
`)
	src := "_start:\n"
	for _, line := range isa.DisassembleExecutable(exe) {
		_, stmt, _ := strings.Cut(line, "  ") // "addr: raw  mnemonic operands"
		src += "    " + stmt + "\n"
	}
	back := assemble(t, src)
	if string(back.Segments[0].Data) != string(exe.Segments[0].Data) {
		t.Errorf("listing does not assemble back to the same text:\n%s", src)
	}
}
