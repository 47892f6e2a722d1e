package asm

import (
	"bytes"
	"testing"

	"firemarshal/internal/isa"
)

// FuzzAssemble guards the assembler against panics; successful assemblies
// must produce decodable executables.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"_start:\n    li a0, 42\n    ecall\n",
		"_start:\nloop:\n    bnez a0, loop\n",
		".equ X, 5\n_start:\n    addi a0, zero, X\n.data\nbuf: .space 8\n",
		"_start:\n    la a0, s\n.data\ns: .asciz \"hi\"\n",
		"_start:\n    jalr 8(t0)\n",
		"# comment\n_start: ecall\n",
		"_start:\n    .word 1, 2\n",
		"garbage input !!!",
		"_start:\n    add a0,, a1\n",
		// Crasher-shaped: out-of-range immediates and an absurd .space size
		// probe integer-overflow paths in operand parsing and layout.
		"_start:\n    li a0, 0x8000000000000000\n    jalr 9223372036854775807(t0)\n.data\nbuf: .space 99999999999999999999\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		exe, err := Assemble(src, Options{})
		if err != nil {
			return
		}
		enc := isa.EncodeExecutable(exe)
		if _, err := isa.DecodeExecutable(enc); err != nil {
			t.Fatalf("assembled executable does not round-trip: %v", err)
		}
	})
}

// FuzzAssembleVsReference holds Assemble to refAssemble, the assembler
// before data runs were merged and parsed in place: the same executable
// bytes, or the same error text, for every source.
func FuzzAssembleVsReference(f *testing.F) {
	seeds := []string{
		chaseTable(4096),
		// Data runs of every width, broken by labels, .align, .space,
		// instructions and section switches, and runs in .text.
		"_start:\n    la a0, tab\n    .word 7, 8\n    ecall\n.data\ntab: .byte 1, 2, '#'\n    .half tab+1, -2\n    .dword tab, 0xffffffffffffffff\nnext:\n" +
			"    .word next-4\n    .align 3\n    .quad next\n    .space 3\n    .byte 9\n.text\n    .word 0x13\n.data\n    .dword tab+8\n    .ascii \"x,#\"\n    .asciz \"\"\n",
		".data\n    .ascii \"\"\n    .align 3\n    .ascii \"\"\n.text\n_start: ecall\n",
		// An undefined symbol in the middle of a merged run: the error
		// names that line, not the run's first.
		"_start:\n    ecall\n.data\nt:\n    .dword t\n    .dword t+8\n    .dword missing+16\n    .dword t-8\n",
		"_start:\n    ecall\n.data\n    .byte 1\n    .byte x, y\n",
		// Integer and character literal forms, as data and as operands.
		".equ A, 0x_1f\n.equ B, 1_000\n.equ C, -0x8000000000000000\n.equ D, '\\x41'\n.equ E, '\\u0041'\n_start:\n    li a0, 010\n    li a1, 0b101\n    li a2, 0o17\n    li a3, C\n    addi a4, a4, D\n    ecall\n.data\n    .dword 0xffffffffffffffff, -1, +5, E\n",
		".equ X, 1__0\n", ".equ X, 0x\n", ".equ X, '\\'\n", ".equ X, 'ab'\n", ".equ X, +0x8000000000000000\n",
		"_start:\n    li a0, '#'\n    li a1, ','\n    li a2, '\\''\n    lw a3, 'a'(sp)\n    ecall\n.data\n    .byte '#', ',', '\"'\n    .ascii \"a\\\\\" # note\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Assemble(src, Options{})
		want, wantErr := refAssemble(src, Options{})
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Assemble error %v, reference error %v", err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("Assemble error %q, reference error %q", err, wantErr)
			}
		case !bytes.Equal(isa.EncodeExecutable(got), isa.EncodeExecutable(want)):
			t.Fatalf("Assemble and the reference produce different executables")
		}
	})
}
