package isa

import (
	"errors"
	"testing"
)

// Every operation has one row: a unique mnemonic that OpByName maps back, a
// format whose no-operand form is only what the architecture has, and fixed
// bits that decode to it.
func TestTableComplete(t *testing.T) {
	names := map[string]Op{}
	for op := OpInvalid + 1; op < opMax; op++ {
		name := op.String()
		if name == "" {
			t.Errorf("op %d has no table row", op)
			continue
		}
		if prev, dup := names[name]; dup {
			t.Errorf("ops %d and %d share the mnemonic %q", prev, op, name)
		}
		names[name] = op
		if got, ok := OpByName(name); !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", name, got, ok, op)
		}
		if f := op.Format(); f > FmtCSR {
			t.Errorf("%v: format %d is not a Format constant", op, f)
		} else if f == FmtNone && op != OpECALL && op != OpEBREAK && op != OpFENCE {
			t.Errorf("%v has no operand format", op)
		}
		if in, err := Decode(insts[op].bits); err != nil || in.Op != op {
			t.Errorf("%v: fixed bits %#08x decode to %v, %v", op, insts[op].bits, in.Op, err)
		}
	}
	for _, name := range []string{"", "invalid", "mulhsu", "op(200)"} {
		if op, ok := OpByName(name); ok {
			t.Errorf("OpByName(%q) = %v, want none", name, op)
		}
	}
	if f := Op(200).Format(); f != FmtNone {
		t.Errorf("Op(200).Format() = %d", f)
	}
}

// Decode is fed words off disk (DecodeExecutable → predecode), so it gets a
// fuzz target: any word either fails with a shared sentinel, or decodes to
// an instruction that Encode accepts and that decodes back to the same
// fields — and neither outcome allocates.
func FuzzDecodeEncode(f *testing.F) {
	for op := OpInvalid + 1; op < opMax; op++ {
		f.Add(insts[op].bits)
		f.Add(insts[op].bits | 0xfff00f80) // immediate, rd and funct7 bits set
	}
	f.Add(uint32(0))
	f.Add(uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, raw uint32) {
		if n := testing.AllocsPerRun(1, func() { Decode(raw) }); n != 0 {
			t.Fatalf("Decode(%#08x) allocates %v times", raw, n)
		}
		in, err := Decode(raw)
		if err != nil {
			if !errors.Is(err, errUnknownOpcode) && !errors.Is(err, errReserved) {
				t.Fatalf("Decode(%#08x): error %v is not a shared sentinel", raw, err)
			}
			return
		}
		if in.Raw != raw {
			t.Fatalf("Decode(%#08x).Raw = %#08x", raw, in.Raw)
		}
		back, err := Encode(in)
		if err != nil {
			t.Fatalf("Decode accepted %#08x (%v) but Encode rejected: %v", raw, in.Op, err)
		}
		again, err := Decode(back)
		if err != nil {
			t.Fatalf("re-decode of %#08x (from %#08x): %v", back, raw, err)
		}
		if again.Op != in.Op || again.Rd != in.Rd || again.Rs1 != in.Rs1 ||
			again.Rs2 != in.Rs2 || again.Imm != in.Imm {
			t.Fatalf("%#08x -> %+v -> %#08x -> %+v", raw, in, back, again)
		}
	})
}

// Predecode runs Decode over every word of every segment, data included, and
// the assembler runs Encode once per instruction: neither allocates, on the
// accepting or the rejecting path.
func TestDecodeEncodeDoNotAllocate(t *testing.T) {
	instrs, data := benchWords()
	var decoded []Instr
	for _, w := range instrs {
		in, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x): %v", w, err)
		}
		decoded = append(decoded, in)
	}
	rejected := 0
	for _, w := range data {
		if _, err := Decode(w); err != nil {
			rejected++
		}
	}
	if rejected < len(data)/2 {
		t.Fatalf("only %d of %d data words rejected: not a rejecting-path test", rejected, len(data))
	}
	for name, fn := range map[string]func(){
		"Decode(instructions)": func() {
			for _, w := range instrs {
				Decode(w)
			}
		},
		"Decode(data)": func() {
			for _, w := range data {
				Decode(w)
			}
		},
		"Encode": func() {
			for _, in := range decoded {
				Encode(in)
			}
		},
	} {
		if n := testing.AllocsPerRun(10, fn); n != 0 {
			t.Errorf("%s allocates %v times per pass", name, n)
		}
	}
}

// benchWords returns 1024 valid instruction words (every operation, with
// varied operand bits) and 1024 random data words.
func benchWords() (instrs, data []uint32) {
	rng := newRand()
	for len(instrs) < 1024 {
		for op := OpInvalid + 1; op < opMax; op++ {
			w := insts[op].bits | rng()&0x01ff8f80 // rd, rs1, rs2
			if insts[op].format != FmtR && insts[op].format != FmtShift {
				w |= rng() & 0xfe000000
			}
			if in, err := Decode(w); err == nil && in.Op == op {
				instrs = append(instrs, w)
			}
		}
	}
	for len(data) < 1024 {
		data = append(data, rng())
	}
	return instrs[:1024], data
}

var (
	sinkInstr Instr
	sinkWord  uint32
)

func BenchmarkDecode(b *testing.B) {
	instrs, data := benchWords()
	for name, words := range map[string][]uint32{"instructions": instrs, "data": data} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInstr, _ = Decode(words[i&1023])
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	words, _ := benchWords()
	instrs := make([]Instr, len(words))
	for i, w := range words {
		instrs[i], _ = Decode(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWord, _ = Encode(instrs[i&1023])
	}
}
