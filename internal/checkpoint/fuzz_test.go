package checkpoint

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/sim"
)

// twoSnapshotRun kills progPages after its second snapshot and returns the
// pointer file's bytes and the two packs: the real material both fuzz
// targets start from.
func twoSnapshotRun(f *testing.F) (pointerFile []byte, packs [][]byte) {
	f.Helper()
	dir := f.TempDir()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		f.Fatal(err)
	}
	ptrDir := filepath.Join(dir, "ckpt")
	rt, err := Open(Config{Store: store, Dir: ptrDir, Job: "job", Every: 1000,
		OnSnapshot: func(ptr Pointer, _ *Checkpoint) error {
			data, err := store.Get(ptr.Digest)
			packs = append(packs, data)
			return err
		}}, false)
	if err != nil {
		f.Fatal(err)
	}
	(&miniPlatform{t: f, rt: rt}).exec(progPages, 2)
	if pointerFile, err = os.ReadFile(PointerPath(ptrDir, "job")); err != nil || len(packs) != 2 {
		f.Fatalf("two-snapshot run left %d packs and pointer file error %v", len(packs), err)
	}
	return pointerFile, packs
}

// FuzzLoadPointer: whatever a pointer file holds — a torn tail, garbage
// lines, nothing — LoadPointer answers with its last intact line or with an
// fs.ErrNotExist-class error, and an append after it is always found.
func FuzzLoadPointer(f *testing.F) {
	real, _ := twoSnapshotRun(f)
	f.Add(real)
	f.Add(real[:len(real)-20])                         // torn tail
	f.Add(append([]byte("\x00garbage\n{\n"), real...)) // garbage first
	f.Add([]byte{})
	f.Add([]byte("{}\n[]\nnull\n"))
	f.Add([]byte(`{"job":"j","digest":"d","exec":-1,"instret":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ptr, err := LoadPointer(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("LoadPointer: %v, want a pointer or fs.ErrNotExist", err)
		}
		if want := lastPointer(data); (ptr == nil) != (want == nil) || (ptr != nil && *ptr != *want) {
			t.Fatalf("LoadPointer = %+v, the whole file's last intact line is %+v", ptr, want)
		}
		next := Pointer{Job: "j", Digest: "after", Exec: 1, Instret: 7}
		if err := appendPointer(path, &next); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadPointer(path); err != nil || *got != next {
			t.Fatalf("after an append LoadPointer = %+v, %v", got, err)
		}
	})
}

// FuzzDecodePack: a pack that is truncated, names a slot beyond its page
// area or another pack's, repeats or reorders page numbers, overstates its
// document length or announces another version is an error — never a
// panic, and never a partially restored Memory (a failed restore leaves the
// machine as it was).
func FuzzDecodePack(f *testing.F) {
	_, packs := twoSnapshotRun(f)
	first, second := packs[0], packs[1]
	f.Add(first)
	f.Add(second)                          // names the first pack, which the fuzz store lacks
	f.Add(first[:len(first)-sim.PageSize]) // a slot beyond the page area
	f.Add(first[:len(first)-100])          // page area not whole pages
	f.Add(first[:packHeader+10])
	overflow := append([]byte(nil), first...)
	binary.LittleEndian.PutUint64(overflow[len(packMagic)+4:], ^uint64(0)-3)
	f.Add(overflow)
	version := append([]byte(nil), first...)
	binary.LittleEndian.PutUint32(version[len(packMagic):], 1)
	f.Add(version)
	for _, doc := range []string{
		`{"job":"j","pages":[{"pn":5,"slot":0},{"pn":5,"slot":1}]}`,
		`{"job":"j","pages":[{"pn":9,"slot":0},{"pn":3,"slot":1}]}`,
		`{"job":"j","pages":[{"pn":1,"slot":-1}]}`,
		`{"job":"j","pages":[{"pn":1,"slot":0},{"pn":2,"pack":"x","slot":0}]}`,
	} {
		pack := append(make([]byte, packHeader), doc...)
		copy(pack, first[:len(packMagic)+4])
		binary.LittleEndian.PutUint64(pack[len(packMagic)+4:], uint64(len(doc)))
		f.Add(append(pack, make([]byte, 2*sim.PageSize)...))
	}
	// One store for the whole run, holding one input at a time.
	store, err := cas.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		digest, err := store.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(cas.BlobPath(store.Dir(), digest))
		cp, err := Load(store, &Pointer{Job: "j", Digest: digest})
		if err != nil {
			return
		}
		for i := 1; i < len(cp.Pages); i++ {
			if cp.Pages[i].PN <= cp.Pages[i-1].PN {
				t.Fatalf("decoded a page table that does not ascend: %+v", cp.Pages)
			}
		}
		cp.Verify(store)
		m := sim.NewMachine()
		m.Mem.Write(0x1000, 8, 1)
		if err := cp.Restore(store, m); err != nil {
			if n := m.Mem.MappedPages(); n != 1 || m.Mem.Read(0x1000, 8) != 1 {
				t.Fatalf("failed restore touched memory (%d pages mapped): %v", n, err)
			}
			return
		}
		if n := m.Mem.MappedPages(); n != len(cp.Pages) {
			t.Fatalf("restored %d pages from a table of %d", n, len(cp.Pages))
		}
	})
}
