package sim

import (
	"testing"

	"firemarshal/internal/isa"
)

// The expected values in this file are worked out from the RISC-V
// unprivileged specification (RV64I base, "M" extension), not from any
// executor in this package: semantics.go is shared by all three, so the
// differential suites cannot catch an error in it.

const (
	minI64 = 0x8000000000000000 // -2^63
	maxI64 = 0x7fffffffffffffff
	minI32 = 0xffffffff80000000 // -2^31, sign-extended
	allOne = 0xffffffffffffffff // -1
)

func TestValueRulesKnownAnswers(t *testing.T) {
	cases := []struct {
		name string
		fn   func(a, b uint64) uint64
		a, b uint64
		want uint64
	}{
		// SLT/SLTU at the sign boundary: -1 is below 0 signed, above it unsigned.
		{"slt -1<0", slt, allOne, 0, 1},
		{"slt 0<-1", slt, 0, allOne, 0},
		{"slt min<max", slt, minI64, maxI64, 1},
		{"slt max<min", slt, maxI64, minI64, 0},
		{"slt equal", slt, 7, 7, 0},
		{"sltu -1<0", sltu, allOne, 0, 0},
		{"sltu 0<-1", sltu, 0, allOne, 1},
		{"sltu max<min", sltu, maxI64, minI64, 1},
		{"sltu equal", sltu, 7, 7, 0},

		// Shifts use only the low six bits of the amount (§2.4.2).
		{"sll 1<<63", sll, 1, 63, minI64},
		{"sll by 64 is by 0", sll, 0x1234, 64, 0x1234},
		{"sll by 65 is by 1", sll, 0x1234, 65, 0x2468},
		{"sll by -1 is by 63", sll, 1, allOne, minI64},
		{"srl top bit", srl, minI64, 63, 1},
		{"srl by 64 is by 0", srl, minI64, 64, minI64},
		{"srl is logical", srl, allOne, 60, 0xf},
		{"sra keeps sign", sra, minI64, 63, allOne},
		{"sra positive", sra, 0x4000000000000000, 62, 1},
		{"sra by 64 is by 0", sra, minI64, 64, minI64},
		{"sra by 68 is by 4", sra, 0xf000000000000000, 68, 0xff00000000000000},

		// MULH/MULHU: upper 64 bits of the 128-bit product.
		{"mulh -1*-1", mulh, allOne, allOne, 0},
		{"mulh -1*1", mulh, allOne, 1, allOne},
		{"mulh min*min", mulh, minI64, minI64, 0x4000000000000000},
		{"mulh min*-1", mulh, minI64, allOne, 0},
		{"mulh max*max", mulh, maxI64, maxI64, 0x3fffffffffffffff},
		{"mulh min*2", mulh, minI64, 2, allOne},
		{"mulhu -1*-1", mulhu, allOne, allOne, 0xfffffffffffffffe},
		{"mulhu 2^63*2", mulhu, minI64, 2, 1},
		{"mulhu small", mulhu, 12345, 67890, 0},

		// Division by zero and signed overflow (M extension, table 7.1).
		{"div 7/0", div, 7, 0, allOne},
		{"div min/0", div, minI64, 0, allOne},
		{"div min/-1", div, minI64, allOne, minI64},
		{"div -7/2 truncates toward zero", div, 0xfffffffffffffff9, 2, 0xfffffffffffffffd},
		{"div 7/-2", div, 7, 0xfffffffffffffffe, 0xfffffffffffffffd},
		{"divu 7/0", divu, 7, 0, allOne},
		{"divu -1/2", divu, allOne, 2, maxI64},
		{"divu min/-1 is unsigned", divu, minI64, allOne, 0},
		{"rem 7%0", rem, 7, 0, 7},
		{"rem min%0", rem, minI64, 0, minI64},
		{"rem min%-1", rem, minI64, allOne, 0},
		{"rem -7%2 takes dividend's sign", rem, 0xfffffffffffffff9, 2, allOne},
		{"rem 7%-2", rem, 7, 0xfffffffffffffffe, 1},
		{"remu 7%0", remu, 7, 0, 7},
		{"remu -1%10", remu, allOne, 10, 5},

		// W forms: 32-bit operation, result sign-extended from bit 31; the
		// upper halves of the operands are ignored.
		{"addw wraps to bit 31", addw, 0x7fffffff, 1, minI32},
		{"addw ignores upper half", addw, 0xdeadbeef00000001, 0x1234567800000002, 3},
		{"addw -1+1", addw, 0xffffffff, 1, 0},
		{"subw 0-1", subw, 0, 1, allOne},
		{"subw min-1 wraps", subw, 0x80000000, 1, 0x7fffffff},
		{"mulw bit 31 set", mulw, 0x10000, 0x8000, minI32},
		{"mulw overflow drops high bits", mulw, 0xffffffff, 0xffffffff, 1},
		{"sllw into bit 31", sllw, 1, 31, minI32},
		{"sllw by 32 is by 0", sllw, 5, 32, 5},
		{"sllw by 33 is by 1", sllw, 0x40000000, 33, minI32},
		{"srlw of bit 31", srlw, 0x80000000, 31, 1},
		{"srlw by 0 sign-extends", srlw, 0x80000000, 0, minI32},
		{"srlw ignores upper half", srlw, 0xffffffff00000010, 4, 1},
		{"srlw by 36 is by 4", srlw, 0x100, 36, 0x10},
		{"sraw keeps sign", sraw, 0x80000000, 31, allOne},
		{"sraw by 32 is by 0", sraw, 0x80000000, 32, minI32},
		{"sraw positive", sraw, 0x40000000, 30, 1},

		{"divw 7/0", divw, 7, 0, allOne},
		{"divw zero is the low word's", divw, 7, 0xffffffff00000000, allOne},
		{"divw min32/-1", divw, 0x80000000, 0xffffffff, minI32},
		{"divw -7/2", divw, 0xfffffff9, 2, 0xfffffffffffffffd},
		{"divw ignores upper half", divw, 0x100000006, 0x700000003, 2},
		{"divuw 7/0", divuw, 7, 0, allOne},
		{"divuw 0xffffffff/1 sign-extends", divuw, 0xffffffff, 1, allOne},
		{"divuw min32/-1 is unsigned", divuw, 0x80000000, 0xffffffff, 0},
		{"remw 7%0", remw, 7, 0, 7},
		{"remw min32%0 sign-extends dividend", remw, 0x80000000, 0, minI32},
		{"remw min32%-1", remw, 0x80000000, 0xffffffff, 0},
		{"remw -7%2", remw, 0xfffffff9, 2, allOne},
		{"remuw 7%0", remuw, 7, 0, 7},
		{"remuw 0x80000001%0 sign-extends dividend", remuw, 0x80000001, 0, 0xffffffff80000001},
		{"remuw 0xffffffff%0x80000000", remuw, 0xffffffff, 0x80000000, 0x7fffffff},
	}
	for _, c := range cases {
		if got := c.fn(c.a, c.b); got != c.want {
			t.Errorf("%s: (%#x, %#x) = %#x, want %#x", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestSext32KnownAnswers(t *testing.T) {
	for v, want := range map[uint32]uint64{
		0: 0, 1: 1, 0x7fffffff: 0x7fffffff, 0x80000000: minI32, 0xffffffff: allOne,
	} {
		if got := sext32(v); got != want {
			t.Errorf("sext32(%#x) = %#x, want %#x", v, got, want)
		}
	}
}

func TestExtendLoadKnownAnswers(t *testing.T) {
	const v = 0xa1b2c3d4e5f6f788 // every width's top bit is set
	for op, want := range map[isa.Op]uint64{
		isa.OpLB:  0xffffffffffffff88,
		isa.OpLBU: v, // the unsigned forms take the zero-extended value as is
		isa.OpLH:  0xfffffffffffff788,
		isa.OpLHU: v,
		isa.OpLW:  0xffffffffe5f6f788,
		isa.OpLWU: v,
		isa.OpLD:  v,
	} {
		if got := extendLoad(op, v); got != want {
			t.Errorf("extendLoad(%v, %#x) = %#x, want %#x", op, uint64(v), got, want)
		}
	}
	// A clear top bit extends with zeros.
	if got := extendLoad(isa.OpLB, 0x17f); got != 0x7f {
		t.Errorf("extendLoad(LB, 0x17f) = %#x, want 0x7f", got)
	}
}

// Stores are little-endian, touch exactly their width, allocate the pages
// they land on, and mark every page they write dirty — within a page, at
// its last aligned slot, straddling into a mapped page, and straddling
// into an unmapped one.
func TestStoreHelpersKnownAnswers(t *testing.T) {
	const v = 0x1122334455667788
	le := []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	stores := []struct {
		size int
		fn   func(m *Memory, addr, v uint64)
	}{
		{1, (*Memory).store8}, {2, (*Memory).store16}, {4, (*Memory).store32}, {8, (*Memory).store64},
	}
	for _, st := range stores {
		size := uint64(st.size)
		for _, c := range []struct {
			name   string
			addr   uint64
			premap []uint64 // pages mapped (and filled with 0xaa) before the store
			pages  []uint64 // pages the store must leave mapped and dirty
		}{
			{"in a mapped page", 0x5010, []uint64{5}, []uint64{5}},
			{"in an unmapped page", 0x5010, nil, []uint64{5}},
			{"last slot of a page", 0x6000 - size, []uint64{5, 6}, []uint64{5}},
			{"straddle, both mapped", 0x6000 - 1, []uint64{5, 6}, []uint64{5, 6}},
			{"straddle into an unmapped page", 0x6000 - 1, []uint64{5}, []uint64{5, 6}},
			{"straddle, both unmapped", 0x6000 - 1, nil, []uint64{5, 6}},
		} {
			if st.size == 1 && len(c.pages) == 2 {
				continue // a byte cannot straddle
			}
			m := NewMemory()
			fill := make([]byte, pageSize)
			for i := range fill {
				fill[i] = 0xaa
			}
			premapped := map[uint64]bool{}
			for _, pn := range c.premap {
				m.WriteBytes(pn<<pageBits, fill)
				premapped[pn] = true
			}
			m.TakeDirty()

			st.fn(m, c.addr, v)

			if got := m.ReadBytes(c.addr, st.size); string(got) != string(le[:st.size]) {
				t.Errorf("store%d %s: bytes % x, want % x", 8*size, c.name, got, le[:st.size])
			}
			// The bytes on either side keep what their page held before.
			for _, a := range []uint64{c.addr - 1, c.addr + size} {
				want := byte(0)
				if premapped[a>>pageBits] {
					want = 0xaa
				}
				if got := m.ReadBytes(a, 1)[0]; got != want {
					t.Errorf("store%d %s: neighbour at %#x = %#x, want %#x", 8*size, c.name, a, got, want)
				}
			}
			dirty := m.TakeDirty()
			for _, pn := range c.pages {
				if _, ok := dirty[pn]; !ok {
					t.Errorf("store%d %s: page %d not marked dirty (%v)", 8*size, c.name, pn, dirty)
				}
				if m.PageBytes(pn) == nil {
					t.Errorf("store%d %s: page %d not mapped", 8*size, c.name, pn)
				}
			}
			if len(dirty) != len(c.pages) {
				t.Errorf("store%d %s: dirtied %v, want exactly %v", 8*size, c.name, dirty, c.pages)
			}
		}
	}
}

// A second store to the same page takes the inlined TLB hit; a TakeDirty in
// between must make the next one mark the page again.
func TestStoreHitRemarksAfterTakeDirty(t *testing.T) {
	m := NewMemory()
	m.store64(0x9000, 1)
	m.store64(0x9008, 2)
	if d := m.TakeDirty(); len(d) != 1 {
		t.Fatalf("dirty after two stores to one page: %v", d)
	}
	m.store32(0x9010, 3)
	if _, ok := m.TakeDirty()[9]; !ok {
		t.Error("store after TakeDirty did not re-mark the page")
	}
	if m.Read(0x9000, 8) != 1 || m.Read(0x9008, 8) != 2 || m.Read(0x9010, 4) != 3 {
		t.Error("stored values lost")
	}
}

// Memory.Write is the reference path's entry to the same helpers.
func TestWriteDispatchesByWidth(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		m := NewMemory()
		m.Write(0x6000-1, size, 0x1122334455667788)
		want := uint64(0x1122334455667788)
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		if got := m.Read(0x6000-1, size); got != want {
			t.Errorf("Write size %d: read back %#x, want %#x", size, got, want)
		}
	}
}
