package isa

import (
	"strings"
	"testing"
)

// W-suffix instruction encodings cross-checked against the RISC-V spec.
func TestWKnownEncodings(t *testing.T) {
	cases := []struct {
		in   Instr
		want uint32
	}{
		// addiw a0, a1, 1 -> 0x0015851b
		{Instr{Op: OpADDIW, Rd: 10, Rs1: 11, Imm: 1}, 0x0015851b},
		// addw a0, a1, a2 -> 0x00c5853b
		{Instr{Op: OpADDW, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5853b},
		// subw a0, a1, a2 -> 0x40c5853b
		{Instr{Op: OpSUBW, Rd: 10, Rs1: 11, Rs2: 12}, 0x40c5853b},
		// slliw a0, a0, 3 -> 0x0035151b
		{Instr{Op: OpSLLIW, Rd: 10, Rs1: 10, Imm: 3}, 0x0035151b},
		// sraiw a0, a0, 31 -> 0x41f5551b
		{Instr{Op: OpSRAIW, Rd: 10, Rs1: 10, Imm: 31}, 0x41f5551b},
		// mulw a0, a1, a2 -> 0x02c5853b
		{Instr{Op: OpMULW, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5853b},
		// divw a0, a1, a2 -> 0x02c5c53b
		{Instr{Op: OpDIVW, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5c53b},
		// remuw a0, a1, a2 -> 0x02c5f53b
		{Instr{Op: OpREMUW, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5f53b},
		// sllw a0, a1, a2 -> 0x00c5953b
		{Instr{Op: OpSLLW, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5953b},
		// srlw a0, a1, a2 -> 0x00c5d53b
		{Instr{Op: OpSRLW, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5d53b},
		// sraw a0, a1, a2 -> 0x40c5d53b
		{Instr{Op: OpSRAW, Rd: 10, Rs1: 11, Rs2: 12}, 0x40c5d53b},
		// divuw a0, a1, a2 -> 0x02c5d53b
		{Instr{Op: OpDIVUW, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5d53b},
		// remw a0, a1, a2 -> 0x02c5e53b
		{Instr{Op: OpREMW, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5e53b},
		// srliw a0, a1, 1 -> 0x0015d51b
		{Instr{Op: OpSRLIW, Rd: 10, Rs1: 11, Imm: 1}, 0x0015d51b},
	}
	seen := map[Op]bool{}
	for _, c := range cases {
		seen[c.in.Op] = true
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in.Op, err)
			continue
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in.Op, got, c.want)
		}
		dec, err := Decode(c.want)
		if err != nil || dec.Op != c.in.Op || dec.Imm != c.in.Imm {
			t.Errorf("Decode(%#08x) = %+v, %v", c.want, dec, err)
		}
	}
	for op := OpADDW; op < opMax; op++ {
		if !seen[op] {
			t.Errorf("no known encoding for %v", op)
		}
	}
}

func TestWDecodeInvalid(t *testing.T) {
	bad := []uint32{
		0x0000201b, // OP-IMM-32 funct3=2 undefined
		0x0000203b, // OP-32 funct3=2 undefined
		0x4000101b, // SLLIW with funct7=0x20
		0x0200101b, // SLLIW with shamt[5] set
		0x0200501b, // SRLIW with shamt[5] set
		0x0400003b, // OP-32 funct7 outside {0, 0x20, 1}
		0x0200103b, // OP-32 funct7=1 funct3=1: no mulhw
	}
	for _, raw := range bad {
		if _, err := Decode(raw); err == nil {
			t.Errorf("Decode(%#08x): expected error", raw)
		}
	}
}

func TestWShiftRange(t *testing.T) {
	if _, err := Encode(Instr{Op: OpSLLIW, Imm: 32}); err == nil {
		t.Error("W shift amount 32 must be rejected")
	}
}

func TestIsMulPredicates(t *testing.T) {
	if !OpMULW.IsMulDiv() || !OpREMUW.IsMulDiv() {
		t.Error("W mul/div not classified")
	}
	if !OpMULW.IsMul() || OpDIVW.IsMul() {
		t.Error("IsMul wrong for W ops")
	}
}

func TestDisassemble(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpADDI, Rd: 10, Rs1: 10, Imm: 1}, "addi a0, a0, 1"},
		{Instr{Op: OpADD, Rd: 10, Rs1: 11, Rs2: 12}, "add a0, a1, a2"},
		{Instr{Op: OpLD, Rd: 10, Rs1: 2, Imm: 8}, "ld a0, 8(sp)"},
		{Instr{Op: OpSD, Rs1: 2, Rs2: 10, Imm: -16}, "sd a0, -16(sp)"},
		{Instr{Op: OpBEQ, Rs1: 10, Rs2: 11, Imm: 16}, "beq a0, a1, +16"},
		{Instr{Op: OpJAL, Rd: 1, Imm: -8}, "jal ra, -8"},
		{Instr{Op: OpECALL}, "ecall"},
		{Instr{Op: OpLUI, Rd: 5, Imm: 0x12345000}, "lui t0, 0x12345"},
		{Instr{Op: OpADDIW, Rd: 10, Rs1: 11, Imm: 0}, "addiw a0, a1, 0"},
	}
	for _, c := range cases {
		if got := Disassemble(c.in); got != c.want {
			t.Errorf("Disassemble(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestDisassembleExecutable(t *testing.T) {
	exe := &Executable{
		Entry: 0x10000,
		Segments: []Segment{{
			Addr: 0x10000,
			Data: []byte{0x13, 0x05, 0x15, 0x00, 0x73, 0x00, 0x00, 0x00},
		}},
	}
	lines := DisassembleExecutable(exe)
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], "addi a0, a0, 1") || !strings.Contains(lines[1], "ecall") {
		t.Errorf("disassembly wrong: %v", lines)
	}
}

// Systematic Encode error coverage: every immediate class rejects
// out-of-range values.
func TestEncodeErrorPaths(t *testing.T) {
	bad := []Instr{
		{Op: OpLUI, Imm: 1 << 40}, // hi out of range (low bits clear)
		{Op: OpAUIPC, Imm: 0xfff}, // low bits set
		{Op: OpJALR, Imm: 4096},   // 12-bit signed
		{Op: OpBNE, Imm: -4098},   // 13-bit signed
		{Op: OpLW, Imm: 2048},     // load imm
		{Op: OpSW, Imm: -2049},    // store imm
		{Op: OpORI, Imm: 1 << 13}, // imm alu
		{Op: OpSRAI, Imm: 64},     // shamt
		{Op: OpSRAIW, Imm: 32},    // W shamt
		{Op: OpADDIW, Imm: 5000},  // addiw imm
		{Op: OpCSRRW, Imm: -1},    // csr range
		{Op: OpInvalid},           // not encodable
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v imm=%d): expected error", in.Op, in.Imm)
		}
	}
}

// Exhaustive decode fuzz: Decode must never panic, and everything it
// accepts must re-encode to the identical word.
func TestQuickDecodeEncodeIdentity(t *testing.T) {
	rng := newRand()
	for i := 0; i < 200000; i++ {
		raw := rng()
		in, err := Decode(raw)
		if err != nil {
			continue
		}
		back, err := Encode(in)
		if err != nil {
			t.Fatalf("Decode accepted %#08x (%v) but Encode rejected: %v", raw, in.Op, err)
		}
		// Re-encoding may canonicalize unused fields (e.g. fence operands);
		// decoding again must give the same instruction.
		again, err := Decode(back)
		if err != nil {
			t.Fatalf("re-decode of %#08x failed: %v", back, err)
		}
		if again.Op != in.Op || again.Rd != in.Rd || again.Rs1 != in.Rs1 ||
			again.Rs2 != in.Rs2 || again.Imm != in.Imm {
			t.Fatalf("decode/encode not stable: %#08x -> %+v -> %#08x -> %+v", raw, in, back, again)
		}
	}
}

// newRand returns a small deterministic xorshift generator (avoiding a
// math/rand import in this file).
func newRand() func() uint32 {
	state := uint32(0x1234567)
	return func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
}
