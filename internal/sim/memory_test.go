package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// memModel is what Memory must behave like: a plain map of pages and a
// plain set of dirty page numbers.
type memModel struct {
	pages map[uint64][]byte
	dirty map[uint64]struct{}
}

func newMemModel() *memModel {
	return &memModel{pages: map[uint64][]byte{}, dirty: map[uint64]struct{}{}}
}

func (mm *memModel) load(addr uint64) byte {
	if p := mm.pages[addr>>pageBits]; p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

func (mm *memModel) store(addr uint64, b byte) {
	pn := addr >> pageBits
	if mm.pages[pn] == nil {
		mm.pages[pn] = make([]byte, pageSize)
	}
	mm.pages[pn][addr&(pageSize-1)] = b
	mm.dirty[pn] = struct{}{}
}

func (mm *memModel) read(addr uint64, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(mm.load(addr+uint64(i)))
	}
	return v
}

func (mm *memModel) pageNumbers() []uint64 {
	out := make([]uint64, 0, len(mm.pages))
	for pn := range mm.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// modelPages are the page numbers the differential aims at: 0, neighbours,
// pages that share a TLB entry (pn, pn+tlbSize, pn+2*tlbSize), and numbers
// beyond 2^40 up to the last page there is, whose straddles wrap to page 0.
var modelPages = []uint64{
	0, 1, tlbSize - 1, tlbSize, tlbSize + 1, 2 * tlbSize, 1 << 18, 1<<18 + tlbSize,
	1<<27 - 1, 1 << 27, 1 << 40, 1<<40 + tlbSize, 1<<52 - 1,
}

// checkMemory compares everything observable of m with the model.
func checkMemory(t testing.TB, m *Memory, mm *memModel) {
	t.Helper()
	pns := m.PageNumbers()
	want := mm.pageNumbers()
	if fmt.Sprint(pns) != fmt.Sprint(want) {
		t.Fatalf("PageNumbers = %#x, want ascending %#x", pns, want)
	}
	if m.MappedPages() != len(want) {
		t.Fatalf("MappedPages = %d, want %d", m.MappedPages(), len(want))
	}
	for _, pn := range want {
		if !bytes.Equal(m.PageBytes(pn), mm.pages[pn]) {
			t.Fatalf("page %#x differs from the model", pn)
		}
	}
}

// runMemoryModel interprets ops as a sequence of Memory calls — reads and
// writes of every width at offsets that straddle pages, WriteBytes,
// ReadString, SetPage, TakeDirty, Reset, Clone — and holds each result to
// the model's.
func runMemoryModel(t testing.TB, ops []byte) {
	m, mm := NewMemory(), newMemModel()
	next := func() uint64 {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return uint64(b)
	}
	pick := func() uint64 {
		pn := modelPages[next()%uint64(len(modelPages))]
		// Offsets cluster at the page's two ends, where accesses straddle.
		off := next()
		if off >= 128 {
			off = pageSize - (off - 127)
		}
		return pn<<pageBits + off + next()%2*2048
	}
	for len(ops) > 0 {
		switch op := next() % 12; op {
		case 0, 1: // Write
			addr, size, v := pick(), int(next()%8)+1, next()*0x0101010101010101^next()<<17
			m.Write(addr, size, v)
			for i := 0; i < size; i++ {
				mm.store(addr+uint64(i), byte(v>>(8*i)))
			}
		case 2, 3: // Read, and the executors' inlined lookup
			addr, size := pick(), int(next()%8)+1
			want := mm.read(addr, size)
			if got := m.Read(addr, size); got != want {
				t.Fatalf("Read(%#x, %d) = %#x, want %#x", addr, size, got, want)
			}
			if p, off := m.lookup(addr), addr&(pageSize-1); p != nil && off <= pageSize-8 {
				if got := binary.LittleEndian.Uint64(p[off:]); got != mm.read(addr, 8) {
					t.Fatalf("lookup(%#x) reads %#x, want %#x", addr, got, mm.read(addr, 8))
				}
			}
		case 4: // WriteBytes, up to a little over two pages
			addr, n := pick(), int(next()*next())%(2*pageSize+17)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i*7 + n)
				mm.store(addr+uint64(i), b[i])
			}
			m.WriteBytes(addr, b)
		case 5: // ReadBytes
			addr, n := pick(), int(next()*next())%(2*pageSize+17)
			got := m.ReadBytes(addr, n)
			for i := range got {
				if got[i] != mm.load(addr+uint64(i)) {
					t.Fatalf("ReadBytes(%#x, %d)[%d] = %#x, want %#x", addr, n, i, got[i], mm.load(addr+uint64(i)))
				}
			}
		case 6: // ReadString
			addr, max := pick(), int(next()*next())%(pageSize+300)
			var want []byte
			terminated := false
			for i := 0; i < max; i++ {
				b := mm.load(addr + uint64(i))
				if b == 0 {
					terminated = true
					break
				}
				want = append(want, b)
			}
			got, err := m.ReadString(addr, max)
			if (err == nil) != terminated || (terminated && got != string(want)) {
				t.Fatalf("ReadString(%#x, %d) = %q, %v; want %q, terminated %v", addr, max, got, err, want, terminated)
			}
		case 7: // SetPage: maps and fills, does not dirty
			pn := pick() >> pageBits
			data := bytes.Repeat([]byte{byte(next()), 1}, pageSize/2)
			if err := m.SetPage(pn, data); err != nil {
				t.Fatal(err)
			}
			mm.pages[pn] = data
			if m.SetPage(pn, data[1:]) == nil {
				t.Fatal("SetPage took a short page")
			}
		case 8: // TakeDirty
			got := m.TakeDirty()
			if len(got) != len(mm.dirty) {
				t.Fatalf("TakeDirty = %v, want %v", got, mm.dirty)
			}
			for pn := range mm.dirty {
				if _, ok := got[pn]; !ok {
					t.Fatalf("TakeDirty = %v lacks page %#x", got, pn)
				}
			}
			mm.dirty = map[uint64]struct{}{}
		case 9: // Clone: equal, clean, and independent of the original
			c := m.Clone()
			checkMemory(t, c, mm)
			if d := c.TakeDirty(); len(d) != 0 {
				t.Fatalf("a clone starts with dirty pages %v", d)
			}
			addr := pick()
			before := mm.read(addr, 8)
			c.Write(addr, 8, ^before)
			if got := m.Read(addr, 8); got != before {
				t.Fatalf("a write to a clone at %#x showed in the original: %#x, was %#x", addr, got, before)
			}
		case 10: // Reset, rarely: it throws the state built so far away
			if next()%8 == 0 {
				m.Reset()
				mm = newMemModel()
			}
		case 11:
			checkMemory(t, m, mm)
		}
	}
	checkMemory(t, m, mm)
	got := m.TakeDirty()
	if len(got) != len(mm.dirty) {
		t.Fatalf("final TakeDirty = %v, want %v", got, mm.dirty)
	}
}

// TestMemoryModel is the tier-1 run of the differential: fixed seeds, long
// op streams.
func TestMemoryModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		ops := make([]byte, 1+rng.Intn(6000))
		rng.Read(ops)
		runMemoryModel(t, ops)
	}
}

func FuzzMemoryModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 40, 400, 4000} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runMemoryModel(t, ops) })
}

// chaseSink keeps BenchmarkMemoryChase's loads alive.
var chaseSink uint64

// BenchmarkMemoryChase reports ns per dependent 8-byte load — made the way
// the executors make it, through the inlined lookup — over a random cycle of one node per page through working sets on both
// sides of the TLB's reach (tlbSize pages = 1 MiB), so the cliff past it is
// a recorded number. One node per page keeps the host's own caches out of
// it: 32 MiB of guest pages is 512 KiB of host cache lines.
func BenchmarkMemoryChase(b *testing.B) {
	for _, kib := range []int{128, 512, 4 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dKiB", kib), func(b *testing.B) {
			const base = 0x10000000
			pages := kib << 10 / pageSize
			// Page i's node sits in a cache line of its own set.
			node := func(i int) uint64 { return base + uint64(i)*pageSize + uint64(i)*64%pageSize }
			m := NewMemory()
			perm := rand.New(rand.NewSource(1)).Perm(pages)
			for i, at := range perm {
				m.Write(node(at), 8, node(perm[(i+1)%pages]))
			}
			addr := node(perm[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off := addr & (pageSize - 1); off <= pageSize-8 {
					if p := m.lookup(addr); p != nil {
						addr = binary.LittleEndian.Uint64(p[off:])
					}
				} else {
					addr = m.Read(addr, 8)
				}
			}
			chaseSink = addr
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/load")
		})
	}
}
