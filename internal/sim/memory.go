package sim

import (
	"bytes"
	"fmt"
	"sort"
)

// pageBits selects a 4KiB page granularity for the sparse memory.
const pageBits = 12
const pageSize = 1 << pageBits

// tlbBits sizes the software TLB: a direct-mapped cache of page pointers
// that lets the common load/store skip the page-map lookup. 256 entries
// reach 1 MiB of guest working set; the size is the smallest of
// 64/256/1024/4096 within run-to-run spread of the best on every benchmark
// shape and mix (DESIGN.md "Guest memory" has the sweep).
const tlbBits = 8
const tlbSize = 1 << tlbBits

// PageSize is the page granularity, exported so checkpointing can store
// and restore whole pages.
const PageSize = pageSize

// tlbEntry caches one page-number -> page-pointer translation. The tag is
// pn+1 so the zero value is never a valid entry. dirty caches membership
// of the page in the dirty set, so the store fast path marks a page dirty
// at most once per entry residency.
type tlbEntry struct {
	tag   uint64
	page  *[pageSize]byte
	dirty bool
}

// Memory is a sparse, paged guest physical memory.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	// tlb is the soft TLB. Pages are only ever added to the page map
	// (never freed while the Memory is live, Reset aside), so cached
	// pointers stay valid for the lifetime of the Memory.
	tlb [tlbSize]tlbEntry

	// dirty accumulates the numbers of pages written since the last
	// TakeDirty, so checkpointing re-hashes only pages that changed.
	dirty map[uint64]struct{}
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[pageSize]byte{}, dirty: map[uint64]struct{}{}}
}

// lookup translates addr to its page, consulting the soft TLB before the
// page map. It returns nil for unmapped pages (which read as zero). The
// TLB-hit path is small enough to inline into simulator hot loops.
func (m *Memory) lookup(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	e := &m.tlb[pn&(tlbSize-1)]
	if e.tag == pn+1 {
		return e.page
	}
	return m.lookupMiss(pn)
}

// lookupMiss refills the TLB from the page map.
func (m *Memory) lookupMiss(pn uint64) *[pageSize]byte {
	p := m.pages[pn]
	if p != nil {
		e := &m.tlb[pn&(tlbSize-1)]
		e.tag, e.page, e.dirty = pn+1, p, false
	}
	return p
}

// storeHit is the store path's hot case: a TLB hit on a page already
// marked dirty this epoch; it returns nil otherwise. It has no call in it
// (cost 33 of go1.24's inlining budget of 80), so it inlines into each
// store helper (semantics.go) and the common store is that helper's one
// call. Putting the miss call in the same function does not inline — the
// call alone costs 57 — which is why hit and miss are two functions.
func (m *Memory) storeHit(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	if e := &m.tlb[pn&(tlbSize-1)]; e.tag == pn+1 && e.dirty {
		return e.page
	}
	return nil
}

// storeMiss is the rest of the store path: the first store to a
// TLB-resident clean page marks it dirty, and anything else takes the full
// miss path, which allocates an unmapped page.
func (m *Memory) storeMiss(pn uint64) *[pageSize]byte {
	if e := &m.tlb[pn&(tlbSize-1)]; e.tag == pn+1 {
		e.dirty = true
		m.dirty[pn] = struct{}{}
		return e.page
	}
	return m.storeRefill(pn)
}

// storeRefill refills the TLB, allocating the page if needed.
func (m *Memory) storeRefill(pn uint64) *[pageSize]byte {
	p, ok := m.pages[pn]
	if !ok {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	e := &m.tlb[pn&(tlbSize-1)]
	e.tag, e.page, e.dirty = pn+1, p, true
	m.dirty[pn] = struct{}{}
	return p
}

// ReadBytes copies n bytes starting at addr into a new slice. Unmapped
// memory reads as zero.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		p := m.lookup(addr + uint64(i))
		off := int((addr + uint64(i)) & (pageSize - 1))
		chunk := pageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if p != nil {
			copy(out[i:i+chunk], p[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// WriteBytes stores b at addr, allocating pages as needed.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		a := addr + uint64(i)
		p := m.storeHit(a)
		if p == nil {
			p = m.storeMiss(a >> pageBits)
		}
		off := int(a & (pageSize - 1))
		chunk := pageSize - off
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(p[off:off+chunk], b[i:i+chunk])
		i += chunk
	}
}

// Read returns a little-endian value of the given byte size.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		// Fast path: the access stays within one page.
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+i])
		}
		return v
	}
	b := m.ReadBytes(addr, size)
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Write stores a little-endian value of the given byte size through the
// per-width store helpers (semantics.go); any other size goes bytewise.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	switch size {
	case 1:
		m.store8(addr, v)
	case 2:
		m.store16(addr, v)
	case 4:
		m.store32(addr, v)
	case 8:
		m.store64(addr, v)
	default:
		m.storeStraddle(addr, size, v)
	}
}

// ReadString reads a NUL-terminated string of at most max bytes. It scans
// page-sized chunks rather than issuing one read per byte; an unmapped page
// reads as zero and therefore terminates the string.
func (m *Memory) ReadString(addr uint64, max int) (string, error) {
	var out []byte
	for n := 0; n < max; {
		a := addr + uint64(n)
		off := int(a & (pageSize - 1))
		chunk := pageSize - off
		if chunk > max-n {
			chunk = max - n
		}
		p := m.lookup(a)
		if p == nil {
			// Unmapped memory reads as zero: the terminator is here.
			return string(out), nil
		}
		window := p[off : off+chunk]
		if i := bytes.IndexByte(window, 0); i >= 0 {
			return string(append(out, window[:i]...)), nil
		}
		out = append(out, window...)
		n += chunk
	}
	return "", fmt.Errorf("sim: unterminated string at %#x", addr)
}

// MappedPages reports how many pages are allocated, for memory accounting.
func (m *Memory) MappedPages() int { return len(m.pages) }

// PageNumbers returns every mapped page number in ascending order, so
// iteration (and therefore checkpoint content) is deterministic.
func (m *Memory) PageNumbers() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageBytes returns a view of page pn's backing bytes (nil if unmapped).
// Callers must not write through it; use SetPage or WriteBytes.
func (m *Memory) PageBytes(pn uint64) []byte {
	p := m.pages[pn]
	if p == nil {
		return nil
	}
	return p[:]
}

// SetPage installs data (exactly PageSize bytes) as the contents of page
// pn, allocating it if needed — the checkpoint-restore path.
func (m *Memory) SetPage(pn uint64, data []byte) error {
	if len(data) != pageSize {
		return fmt.Errorf("sim: SetPage(%#x): %d bytes, want %d", pn, len(data), pageSize)
	}
	p, ok := m.pages[pn]
	if !ok {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	copy(p[:], data)
	return nil
}

// TakeDirty returns the set of pages written since the last call and
// resets tracking (including the TLB's cached dirty bits).
func (m *Memory) TakeDirty() map[uint64]struct{} {
	d := m.dirty
	m.dirty = map[uint64]struct{}{}
	for i := range m.tlb {
		m.tlb[i].dirty = false
	}
	return d
}

// Reset drops every page, the TLB, and dirty tracking — the prelude to
// installing a checkpoint's pages wholesale.
func (m *Memory) Reset() {
	m.pages = map[uint64]*[pageSize]byte{}
	m.tlb = [tlbSize]tlbEntry{}
	m.dirty = map[uint64]struct{}{}
}

// Clone returns a deep copy of memory (used to snapshot machine state).
// The clone starts with a cold TLB.
func (m *Memory) Clone() *Memory {
	n := NewMemory()
	for pn, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		n.pages[pn] = cp
	}
	return n
}
