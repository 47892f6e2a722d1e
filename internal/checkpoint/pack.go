package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"firemarshal/internal/cas"
	"firemarshal/internal/sim"
)

// Version identifies the checkpoint format; a reader refuses any other
// rather than misinterpreting state, and the job it belonged to restarts.
const Version = 2

// A pack is the one CAS blob a snapshot writes:
//
//	"FMCK" | version uint32 LE | document length uint64 LE   (packHeader bytes)
//	document: the Checkpoint as JSON
//	page area: slot 0, slot 1, ... — sim.PageSize raw bytes each
//
// The page area holds the pages dirtied since the previous snapshot, in
// ascending page order; the document's page table says, for every mapped
// page, which pack and slot hold it. A reader after another pack's slots
// needs that pack's header only, never its document.
const (
	packMagic  = "FMCK"
	packHeader = len(packMagic) + 4 + 8
)

// PageRef locates one mapped page's bytes.
type PageRef struct {
	PN uint64 `json:"pn"`
	// Pack is the digest of the pack whose page area holds the page; ""
	// means the pack this document is in.
	Pack string `json:"pack,omitempty"`
	// Slot indexes that pack's page area.
	Slot int `json:"slot"`
}

// ExecRecord is the outcome of one completed Platform.Exec, enough to
// replay it on resume without re-simulating: the platform re-charges
// Cycles and re-emits the recorded console bytes.
type ExecRecord struct {
	// Sig identifies the exec (entry point + arguments); resume refuses
	// to replay against a workload that issues a different sequence.
	Sig string `json:"sig"`
	// Exit is the guest's exit code.
	Exit int64 `json:"exit"`
	// Instrs is the instructions retired by this exec.
	Instrs uint64 `json:"instrs"`
	// Cycles is the platform cycle delta this exec charged.
	Cycles uint64 `json:"cycles"`
	// Console is the CAS digest of the exec's console output.
	Console string `json:"console"`
}

// Checkpoint is one snapshot's document: the completed-exec history plus
// the in-flight exec's machine state at an instruction boundary.
type Checkpoint struct {
	Job string `json:"job"`
	// ExecIdx is the index (into the platform's exec sequence) of the
	// in-flight exec this snapshot was taken inside.
	ExecIdx int `json:"exec"`
	// Sig is the in-flight exec's signature.
	Sig string `json:"sig"`
	// Arch is the machine's architectural state at the snapshot boundary.
	Arch sim.ArchState `json:"arch"`
	// Pages is the page table: every mapped page, ascending by page number.
	Pages []PageRef `json:"pages"`
	// Extra is the platform's own state by name (e.g. "rtlsim").
	Extra map[string][]byte `json:"extra,omitempty"`
	// Console is the in-flight exec's console bytes so far.
	Console []byte `json:"console,omitempty"`
	// Execs records the execs completed before the in-flight one.
	Execs []ExecRecord `json:"execs,omitempty"`

	// pack is the digest of the pack the document is in: what "" in the
	// page table stands for.
	pack string
}

// encodePack serializes cp and the pages own names (mem's, in slot order)
// into a pack.
func encodePack(cp *Checkpoint, mem *sim.Memory, own []uint64) ([]byte, error) {
	doc, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, packHeader, packHeader+len(doc)+len(own)*sim.PageSize)
	copy(buf, packMagic)
	binary.LittleEndian.PutUint32(buf[len(packMagic):], Version)
	binary.LittleEndian.PutUint64(buf[len(packMagic)+4:], uint64(len(doc)))
	buf = append(buf, doc...)
	for _, pn := range own {
		buf = append(buf, mem.PageBytes(pn)...)
	}
	return buf, nil
}

// writePack stores cp, a snapshot of mem, as one pack and returns its
// digest, filling in cp's page table on the way. A page that is in prev —
// the previous snapshot's table — and not in dirty stays where prev has it;
// every other mapped page goes into this pack's page area.
func writePack(store *cas.Store, cp *Checkpoint, mem *sim.Memory, prev []PageRef, dirty map[uint64]struct{}) (string, error) {
	pns := mem.PageNumbers()
	cp.Pages = make([]PageRef, 0, len(pns))
	var own []uint64
	for _, pn := range pns {
		for len(prev) > 0 && prev[0].PN < pn {
			prev = prev[1:]
		}
		if _, wrote := dirty[pn]; !wrote && len(prev) > 0 && prev[0].PN == pn {
			cp.Pages = append(cp.Pages, prev[0])
			continue
		}
		cp.Pages = append(cp.Pages, PageRef{PN: pn, Slot: len(own)})
		own = append(own, pn)
	}
	data, err := encodePack(cp, mem, own)
	if err != nil {
		return "", err
	}
	if cp.pack, err = store.Put(data); err != nil {
		return "", fmt.Errorf("checkpoint: job %s: storing pack: %w", cp.Job, err)
	}
	return cp.pack, nil
}

// pageArea checks a pack's header and returns its document and page area.
func pageArea(data []byte) (doc, pages []byte, err error) {
	if len(data) < packHeader || string(data[:len(packMagic)]) != packMagic {
		return nil, nil, errors.New("not a checkpoint pack")
	}
	if v := binary.LittleEndian.Uint32(data[len(packMagic):]); v != Version {
		return nil, nil, fmt.Errorf("format version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[len(packMagic)+4:])
	if n > uint64(len(data)-packHeader) {
		return nil, nil, fmt.Errorf("document length %d exceeds the pack", n)
	}
	doc, pages = data[packHeader:packHeader+int(n)], data[packHeader+int(n):]
	if len(pages)%sim.PageSize != 0 {
		return nil, nil, fmt.Errorf("page area of %d bytes is not whole pages", len(pages))
	}
	return doc, pages, nil
}

// decodePack parses a pack into its document and page area. The page table
// must ascend strictly and its own slots must lie inside the page area;
// slots in other packs are checked when those packs are read.
func decodePack(data []byte) (*Checkpoint, []byte, error) {
	doc, pages, err := pageArea(data)
	if err != nil {
		return nil, nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(doc, &cp); err != nil {
		return nil, nil, fmt.Errorf("decoding document: %w", err)
	}
	for i, p := range cp.Pages {
		if i > 0 && p.PN <= cp.Pages[i-1].PN {
			return nil, nil, fmt.Errorf("page table does not ascend at %#x", p.PN)
		}
		if p.Pack == "" && (p.Slot < 0 || p.Slot >= len(pages)/sim.PageSize) {
			return nil, nil, fmt.Errorf("page %#x: slot %d beyond the pack's %d", p.PN, p.Slot, len(pages)/sim.PageSize)
		}
	}
	return &cp, pages, nil
}

// Load fetches and decodes the checkpoint a pointer names.
func Load(store *cas.Store, ptr *Pointer) (*Checkpoint, error) {
	data, err := store.Get(ptr.Digest)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: job %s: %w", ptr.Job, err)
	}
	cp, _, err := decodePack(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: job %s: pack %.12s: %w", ptr.Job, ptr.Digest, err)
	}
	cp.pack = ptr.Digest
	return cp, nil
}

// table returns the page table with every entry's pack spelled out.
func (cp *Checkpoint) table() []PageRef {
	out := make([]PageRef, len(cp.Pages))
	for i, p := range cp.Pages {
		if p.Pack == "" {
			p.Pack = cp.pack
		}
		out[i] = p
	}
	return out
}

// Refs returns every blob digest the checkpoint needs — its own pack, the
// packs its page table names and the completed execs' consoles: the set a
// garbage collector must pin while the run is resumable, and the set a
// handoff must move.
func (cp *Checkpoint) Refs() []string {
	seen := map[string]bool{}
	if cp.pack != "" {
		seen[cp.pack] = true
	}
	for _, p := range cp.Pages {
		if p.Pack != "" {
			seen[p.Pack] = true
		}
	}
	for _, e := range cp.Execs {
		if e.Console != "" {
			seen[e.Console] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Verify checks that every blob a checkpoint references is present in
// the store, returning a description of each problem.
func (cp *Checkpoint) Verify(store *cas.Store) []string {
	var problems []string
	for _, d := range cp.Refs() {
		if !store.Has(d) {
			problems = append(problems, fmt.Sprintf("checkpoint for %s (exec %d): missing blob %.12s", cp.Job, cp.ExecIdx, d))
		}
	}
	return problems
}

// pageData reads every pack the page table names, once each, and returns
// the bytes of each page in table order — everything a restore needs from
// the store. A missing or corrupt pack, or a slot beyond one, is an error.
func (cp *Checkpoint) pageData(store *cas.Store) ([][]byte, error) {
	areas := map[string][]byte{}
	out := make([][]byte, len(cp.Pages))
	for i, p := range cp.table() {
		area, ok := areas[p.Pack]
		if !ok {
			data, err := store.Get(p.Pack)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: restore %s: %w", cp.Job, err)
			}
			if _, area, err = pageArea(data); err != nil {
				return nil, fmt.Errorf("checkpoint: restore %s: pack %.12s: %w", cp.Job, p.Pack, err)
			}
			areas[p.Pack] = area
		}
		if p.Slot < 0 || p.Slot >= len(area)/sim.PageSize {
			return nil, fmt.Errorf("checkpoint: restore %s: page %#x: slot %d beyond pack %.12s", cp.Job, p.PN, p.Slot, p.Pack)
		}
		out[i] = area[p.Slot*sim.PageSize : (p.Slot+1)*sim.PageSize]
	}
	return out, nil
}

// install makes m exactly the checkpoint's machine: memory reset to pages
// (pageData's answer) and the architectural state reinstalled.
func (cp *Checkpoint) install(m *sim.Machine, pages [][]byte) {
	m.Mem.Reset()
	for i, p := range cp.Pages {
		m.Mem.SetPage(p.PN, pages[i]) // whole pages by construction: cannot fail
	}
	m.RestoreArch(cp.Arch)
}
