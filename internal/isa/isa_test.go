package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Known encodings cross-checked against the RISC-V spec / gnu as output.
func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		in   Instr
		want uint32
	}{
		// addi a0, a0, 1  -> 0x00150513
		{Instr{Op: OpADDI, Rd: 10, Rs1: 10, Imm: 1}, 0x00150513},
		// addi sp, sp, -16 -> 0xff010113
		{Instr{Op: OpADDI, Rd: 2, Rs1: 2, Imm: -16}, 0xff010113},
		// add a0, a1, a2 -> 0x00c58533
		{Instr{Op: OpADD, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c58533},
		// sub a0, a1, a2 -> 0x40c58533
		{Instr{Op: OpSUB, Rd: 10, Rs1: 11, Rs2: 12}, 0x40c58533},
		// lui a0, 0x12345 -> 0x12345537
		{Instr{Op: OpLUI, Rd: 10, Imm: 0x12345000}, 0x12345537},
		// jal ra, +8 -> 0x008000ef
		{Instr{Op: OpJAL, Rd: 1, Imm: 8}, 0x008000ef},
		// jalr zero, 0(ra)  (ret) -> 0x00008067
		{Instr{Op: OpJALR, Rd: 0, Rs1: 1, Imm: 0}, 0x00008067},
		// beq a0, a1, +16 -> 0x00b50863
		{Instr{Op: OpBEQ, Rs1: 10, Rs2: 11, Imm: 16}, 0x00b50863},
		// ld a0, 8(sp) -> 0x00813503
		{Instr{Op: OpLD, Rd: 10, Rs1: 2, Imm: 8}, 0x00813503},
		// sd a0, 8(sp) -> 0x00a13423
		{Instr{Op: OpSD, Rs1: 2, Rs2: 10, Imm: 8}, 0x00a13423},
		// mul a0, a1, a2 -> 0x02c58533
		{Instr{Op: OpMUL, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c58533},
		// ecall -> 0x00000073
		{Instr{Op: OpECALL}, 0x00000073},
		// slli a0, a0, 3 -> 0x00351513
		{Instr{Op: OpSLLI, Rd: 10, Rs1: 10, Imm: 3}, 0x00351513},
		// srai a0, a0, 63 -> 0x43f55513
		{Instr{Op: OpSRAI, Rd: 10, Rs1: 10, Imm: 63}, 0x43f55513},
		// csrrs a0, cycle, zero -> 0xc0002573
		{Instr{Op: OpCSRRS, Rd: 10, Rs1: 0, Imm: CSRCycle}, 0xc0002573},
		// sll a0, a1, a2 -> 0x00c59533
		{Instr{Op: OpSLL, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c59533},
		// slt a0, a1, a2 -> 0x00c5a533
		{Instr{Op: OpSLT, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5a533},
		// sltu a0, a1, a2 -> 0x00c5b533
		{Instr{Op: OpSLTU, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5b533},
		// xor a0, a1, a2 -> 0x00c5c533
		{Instr{Op: OpXOR, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5c533},
		// srl a0, a1, a2 -> 0x00c5d533
		{Instr{Op: OpSRL, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5d533},
		// sra a0, a1, a2 -> 0x40c5d533
		{Instr{Op: OpSRA, Rd: 10, Rs1: 11, Rs2: 12}, 0x40c5d533},
		// or a0, a1, a2 -> 0x00c5e533
		{Instr{Op: OpOR, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5e533},
		// and a0, a1, a2 -> 0x00c5f533
		{Instr{Op: OpAND, Rd: 10, Rs1: 11, Rs2: 12}, 0x00c5f533},
		// mulh a0, a1, a2 -> 0x02c59533
		{Instr{Op: OpMULH, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c59533},
		// mulhu a0, a1, a2 -> 0x02c5b533
		{Instr{Op: OpMULHU, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5b533},
		// div a0, a1, a2 -> 0x02c5c533
		{Instr{Op: OpDIV, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5c533},
		// divu a0, a1, a2 -> 0x02c5d533
		{Instr{Op: OpDIVU, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5d533},
		// rem a0, a1, a2 -> 0x02c5e533
		{Instr{Op: OpREM, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5e533},
		// remu a0, a1, a2 -> 0x02c5f533
		{Instr{Op: OpREMU, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c5f533},
		// slti a0, a1, -1 -> 0xfff5a513
		{Instr{Op: OpSLTI, Rd: 10, Rs1: 11, Imm: -1}, 0xfff5a513},
		// sltiu a0, a1, 1 -> 0x0015b513
		{Instr{Op: OpSLTIU, Rd: 10, Rs1: 11, Imm: 1}, 0x0015b513},
		// xori a0, a1, -1 -> 0xfff5c513
		{Instr{Op: OpXORI, Rd: 10, Rs1: 11, Imm: -1}, 0xfff5c513},
		// ori a0, a1, 2047 -> 0x7ff5e513
		{Instr{Op: OpORI, Rd: 10, Rs1: 11, Imm: 2047}, 0x7ff5e513},
		// andi a0, a1, 255 -> 0x0ff5f513
		{Instr{Op: OpANDI, Rd: 10, Rs1: 11, Imm: 255}, 0x0ff5f513},
		// srli a0, a1, 32 -> 0x0205d513
		{Instr{Op: OpSRLI, Rd: 10, Rs1: 11, Imm: 32}, 0x0205d513},
		// auipc a0, 0x1 -> 0x00001517
		{Instr{Op: OpAUIPC, Rd: 10, Imm: 0x1000}, 0x00001517},
		// bne a0, a1, -4 -> 0xfeb51ee3
		{Instr{Op: OpBNE, Rs1: 10, Rs2: 11, Imm: -4}, 0xfeb51ee3},
		// blt a0, a1, +2048 -> 0x00b540e3
		{Instr{Op: OpBLT, Rs1: 10, Rs2: 11, Imm: 2048}, 0x00b540e3},
		// bge a0, a1, -4096 -> 0x80b55063
		{Instr{Op: OpBGE, Rs1: 10, Rs2: 11, Imm: -4096}, 0x80b55063},
		// bltu a0, a1, +4094 -> 0x7eb56fe3
		{Instr{Op: OpBLTU, Rs1: 10, Rs2: 11, Imm: 4094}, 0x7eb56fe3},
		// bgeu a0, a1, +8 -> 0x00b57463
		{Instr{Op: OpBGEU, Rs1: 10, Rs2: 11, Imm: 8}, 0x00b57463},
		// lb a0, -1(a1) -> 0xfff58503
		{Instr{Op: OpLB, Rd: 10, Rs1: 11, Imm: -1}, 0xfff58503},
		// lh a0, 2(a1) -> 0x00259503
		{Instr{Op: OpLH, Rd: 10, Rs1: 11, Imm: 2}, 0x00259503},
		// lw a0, 4(a1) -> 0x0045a503
		{Instr{Op: OpLW, Rd: 10, Rs1: 11, Imm: 4}, 0x0045a503},
		// lbu a0, 0(a1) -> 0x0005c503
		{Instr{Op: OpLBU, Rd: 10, Rs1: 11, Imm: 0}, 0x0005c503},
		// lhu a0, 2047(a1) -> 0x7ff5d503
		{Instr{Op: OpLHU, Rd: 10, Rs1: 11, Imm: 2047}, 0x7ff5d503},
		// lwu a0, -2048(a1) -> 0x8005e503
		{Instr{Op: OpLWU, Rd: 10, Rs1: 11, Imm: -2048}, 0x8005e503},
		// sb a0, -1(a1) -> 0xfea58fa3
		{Instr{Op: OpSB, Rs1: 11, Rs2: 10, Imm: -1}, 0xfea58fa3},
		// sh a0, 2(a1) -> 0x00a59123
		{Instr{Op: OpSH, Rs1: 11, Rs2: 10, Imm: 2}, 0x00a59123},
		// sw a0, 2047(a1) -> 0x7ea5afa3
		{Instr{Op: OpSW, Rs1: 11, Rs2: 10, Imm: 2047}, 0x7ea5afa3},
		// ebreak -> 0x00100073
		{Instr{Op: OpEBREAK}, 0x00100073},
		// csrrw zero, 0x340, a0 -> 0x34051073
		{Instr{Op: OpCSRRW, Rs1: 10, Imm: 0x340}, 0x34051073},
		// fence (no operands: the bare opcode, not gnu as's iorw,iorw) -> 0x0000000f
		{Instr{Op: OpFENCE}, 0x0000000f},
	}
	seen := map[Op]bool{}
	for _, c := range cases {
		seen[c.in.Op] = true
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v %v): %v", c.in.Op, c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in.Op, got, c.want)
		}
		dec, err := Decode(c.want)
		if err != nil {
			t.Errorf("Decode(%#08x): %v", c.want, err)
			continue
		}
		if dec.Op != c.in.Op || dec.Rd != c.in.Rd || dec.Rs1 != c.in.Rs1 ||
			dec.Rs2 != c.in.Rs2 || dec.Imm != c.in.Imm {
			t.Errorf("Decode(%#08x) = %+v, want %+v", c.want, dec, c.in)
		}
	}
	// Every operation has a known answer here; the W-suffixed ones in
	// TestWKnownEncodings.
	for op := OpInvalid + 1; op < OpADDW; op++ {
		if !seen[op] {
			t.Errorf("no known encoding for %v", op)
		}
	}
}

func TestNegativeImmediates(t *testing.T) {
	cases := []Instr{
		{Op: OpADDI, Rd: 5, Rs1: 6, Imm: -2048},
		{Op: OpBNE, Rs1: 1, Rs2: 2, Imm: -4096},
		{Op: OpJAL, Rd: 1, Imm: -1048576},
		{Op: OpLW, Rd: 3, Rs1: 4, Imm: -1},
		{Op: OpSD, Rs1: 2, Rs2: 8, Imm: -8},
		{Op: OpLUI, Rd: 1, Imm: -4096},
	}
	for _, in := range cases {
		raw, err := Encode(in)
		if err != nil {
			t.Errorf("%v: %v", in.Op, err)
			continue
		}
		dec, err := Decode(raw)
		if err != nil {
			t.Errorf("%v: decode: %v", in.Op, err)
			continue
		}
		if dec.Imm != in.Imm {
			t.Errorf("%v: imm round trip %d -> %d", in.Op, in.Imm, dec.Imm)
		}
	}
}

func TestImmediateRangeErrors(t *testing.T) {
	cases := []Instr{
		{Op: OpADDI, Imm: 2048},
		{Op: OpADDI, Imm: -2049},
		{Op: OpJAL, Imm: 1 << 21},
		{Op: OpJAL, Imm: 3}, // odd offset
		{Op: OpBEQ, Imm: 1 << 13},
		{Op: OpBEQ, Imm: 5}, // odd offset
		{Op: OpSLLI, Imm: 64},
		{Op: OpSLLI, Imm: -1},
		{Op: OpLUI, Imm: 0x123}, // low bits set
		{Op: OpCSRRS, Imm: 0x1000},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v imm=%d): expected error", in.Op, in.Imm)
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	bad := []uint32{
		0x00000000,         // all zeros: invalid opcode
		0xffffffff,         // all ones
		0x0000007f,         // unknown opcode
		0x00001073 | 7<<12, // bad SYSTEM funct3 (and not ecall/ebreak)
		0x00002063,         // branch funct3=2 undefined
		0x00007003,         // load funct3=7 undefined
		0x00007023 | 4<<12, // store funct3=4 undefined
		0x00003063,         // branch funct3=3 undefined
		0x40001013,         // SLLI with funct7=0x20
		0x08005013,         // SRLI with funct7 outside {0, 0x20} (above shamt[5])
		0x04000033,         // OP funct7 outside {0, 0x20, 1}
		0x40001033,         // OP funct7=0x20 funct3=1: only sub and sra live there
		0x02002033,         // OP funct7=1 funct3=2: no mulhsu
		0x00001067,         // JALR funct3=1
		0x00200073,         // SYSTEM funct3=0 that is neither ecall nor ebreak
		0x00008073,         // ecall with rs1 set
	}
	for _, raw := range bad {
		if _, err := Decode(raw); err == nil {
			t.Errorf("Decode(%#08x): expected error", raw)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !OpBEQ.IsBranch() || OpJAL.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !OpJAL.IsJump() || !OpJALR.IsJump() || OpADD.IsJump() {
		t.Error("IsJump wrong")
	}
	if !OpLD.IsLoad() || OpSD.IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !OpSD.IsStore() || OpLD.IsStore() {
		t.Error("IsStore wrong")
	}
	if !OpDIV.IsMulDiv() || OpADD.IsMulDiv() {
		t.Error("IsMulDiv wrong")
	}
}

func TestRegNames(t *testing.T) {
	if RegNames["a0"] != 10 || RegNames["sp"] != 2 || RegNames["t6"] != 31 {
		t.Error("RegNames wrong")
	}
	if RegName(10) != "a0" || RegName(0) != "zero" {
		t.Error("RegName wrong")
	}
	// fp aliases s0
	if RegNames["fp"] != RegNames["s0"] {
		t.Error("fp alias broken")
	}
}

// Property: Encode∘Decode is the identity on all valid instructions we can
// generate.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() Instr {
		ops := []Op{
			OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
			OpMUL, OpMULH, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU,
			OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI,
			OpLUI, OpAUIPC, OpJAL, OpJALR,
			OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU,
			OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU,
			OpSB, OpSH, OpSW, OpSD,
			OpECALL, OpEBREAK, OpCSRRS, OpCSRRW,
		}
		in := Instr{
			Op:  ops[rng.Intn(len(ops))],
			Rd:  uint8(rng.Intn(32)),
			Rs1: uint8(rng.Intn(32)),
			Rs2: uint8(rng.Intn(32)),
		}
		switch {
		case in.Op == OpLUI || in.Op == OpAUIPC:
			in.Imm = int64(rng.Intn(1<<20)-(1<<19)) << 12
			in.Rs1, in.Rs2 = 0, 0
		case in.Op == OpJAL:
			in.Imm = int64(rng.Intn(1<<20)-(1<<19)) * 2
			in.Rs1, in.Rs2 = 0, 0
		case in.Op.IsBranch():
			in.Imm = int64(rng.Intn(1<<12)-(1<<11)) * 2
			in.Rd = 0
		case in.Op == OpSLLI || in.Op == OpSRLI || in.Op == OpSRAI:
			in.Imm = int64(rng.Intn(64))
			in.Rs2 = 0
		case in.Op == OpJALR || in.Op.IsLoad() ||
			in.Op == OpADDI || in.Op == OpSLTI || in.Op == OpSLTIU ||
			in.Op == OpXORI || in.Op == OpORI || in.Op == OpANDI:
			in.Imm = int64(rng.Intn(1<<12) - (1 << 11))
			in.Rs2 = 0
		case in.Op.IsStore():
			in.Imm = int64(rng.Intn(1<<12) - (1 << 11))
			in.Rd = 0
		case in.Op == OpCSRRS || in.Op == OpCSRRW:
			in.Imm = int64(rng.Intn(1 << 12))
			in.Rs2 = 0
		case in.Op == OpECALL || in.Op == OpEBREAK:
			in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
		}
		return in
	}
	f := func() bool {
		in := gen()
		raw, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%+v): %v", in, err)
			return false
		}
		dec, err := Decode(raw)
		if err != nil {
			t.Logf("Decode(%#08x) [%+v]: %v", raw, in, err)
			return false
		}
		ok := dec.Op == in.Op && dec.Rd == in.Rd && dec.Rs1 == in.Rs1 &&
			dec.Rs2 == in.Rs2 && dec.Imm == in.Imm
		if !ok {
			t.Logf("round trip: in=%+v raw=%#08x out=%+v", in, raw, dec)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpADD.String() != "add" || OpCSRRS.String() != "csrrs" {
		t.Error("Op.String wrong")
	}
	if Op(200).String() == "" {
		t.Error("out-of-range op should still format")
	}
}
