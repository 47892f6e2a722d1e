package hostutil

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// known hashes the file or tree at path until the digest cache answers for
// all of it without a read, and returns the digest. On a file system with
// coarse timestamps a file changed in the tick it is hashed in is racily
// clean and not recorded; a later tick records it.
func known(t *testing.T, path string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		d, n, err := HashTree(path)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return d
		}
		if i > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatalf("the digest cache never answered for %s", path)
	return ""
}

// notesTaken reports whether a digest noted right after a file in dir is
// written is recorded: whether the file system stamps that write and the
// probe write after it with different times, as one with multigrain
// timestamps does. With coarse timestamps the two share a tick and the note
// is racily clean.
func notesTaken(t *testing.T, dir string) bool {
	t.Helper()
	p := filepath.Join(dir, "stamped")
	defer os.Remove(p)
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(p, []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		id, st, ok := fileKey(fi)
		if !ok {
			return false
		}
		if stamp, ok := fsStamp(dir, id, st); !ok || st.ctime >= stamp {
			return false
		}
	}
	return true
}

// FileDigest reads a file once; after that it answers from the cache until
// the file's stat moves, whatever moved it. Each edit comes right after the
// cache answered, which on a coarse clock is the tick the entry was
// recorded in.
func TestFileDigestReadsAFileOnceWhileItIsUnchanged(t *testing.T) {
	p := filepath.Join(t.TempDir(), "f")
	os.WriteFile(p, []byte("one"), 0o644)
	if d, n, err := FileDigest(p); err != nil || d != HashBytes([]byte("one")) || n != 3 {
		t.Fatalf("first look: %s, %d bytes read, %v; want the digest and 3 bytes", d, n, err)
	}
	for _, c := range []struct {
		how     string
		content string
		edit    func(before os.FileInfo) error
	}{
		{"rewritten in place, same size", "two", func(os.FileInfo) error { return os.WriteFile(p, []byte("two"), 0o644) }},
		{"rewritten with its mtime put back", "666", func(before os.FileInfo) error {
			if err := os.WriteFile(p, []byte("666"), 0o644); err != nil {
				return err
			}
			return os.Chtimes(p, before.ModTime(), before.ModTime())
		}},
		{"replaced by rename", "three", func(os.FileInfo) error { return WriteFileAtomic(p, []byte("three"), 0o644) }},
		{"chmodded", "three", func(os.FileInfo) error { return os.Chmod(p, 0o600) }},
	} {
		known(t, p)
		before, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.edit(before); err != nil {
			t.Fatal(err)
		}
		d, n, err := FileDigest(p)
		if err != nil || d != HashBytes([]byte(c.content)) || n != int64(len(c.content)) {
			t.Errorf("%s: %s, %d bytes read, %v; want %q's digest, read again", c.how, d, n, err, c.content)
		}
	}
}

// The racy-clean rule on its own: an entry is recorded only if the file's
// ctime is older than the file-system timestamp taken before its digest was
// learnt. The entry claims a digest the file does not have, so an answer
// from the cache shows.
func TestRecordDigestRefusesRacilyCleanEntries(t *testing.T) {
	p := filepath.Join(t.TempDir(), "f")
	os.WriteFile(p, []byte("bytes"), 0o644)
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	id, st, ok := fileKey(fi)
	if !ok {
		t.Skip("no digest-cache key for files on this platform")
	}
	for _, c := range []struct {
		name    string
		stamp   int64
		trusted bool
	}{
		{"stamp later than the change", st.ctime + 1, true},
		{"stamp in the change's tick", st.ctime, false},
		{"stamp before the change", st.ctime - 1, false},
	} {
		digests.mu.Lock()
		delete(digests.files, id)
		digests.mu.Unlock()
		recordDigest(id, st, "planted", c.stamp)
		d, ok := lookupDigest(fi)
		if got := ok && d == "planted"; got != c.trusted {
			t.Errorf("%s: entry trusted = %v, want %v", c.name, got, c.trusted)
		}
	}
}

// What the rule rests on: a change made after fsStamp returned never gets a
// ctime older than the stamp, so an entry older than the stamp is moved by
// it. And the probe behind the stamps leaves nothing in the directory it is
// opened in.
func TestFsStampPrecedesEveryLaterChange(t *testing.T) {
	dir := t.TempDir()
	f := openProbe(dir)
	if f == nil {
		t.Fatal("no probe could be opened")
	}
	f.Close()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("opening a probe left %d entries", len(ents))
	}
	p := filepath.Join(dir, "f")
	os.WriteFile(p, []byte("before"), 0o644)
	fi, _ := os.Stat(p)
	id, st, ok := fileKey(fi)
	if !ok {
		t.Skip("no digest-cache key for files on this platform")
	}
	stamp, ok := fsStamp(dir, id, st)
	if !ok {
		t.Fatal("no stamp")
	}
	os.WriteFile(p, []byte("AFTER!"), 0o644)
	fi, _ = os.Stat(p)
	if _, after, _ := fileKey(fi); after.ctime < stamp {
		t.Errorf("a change after the stamp %d got the older ctime %d", stamp, after.ctime)
	}
}

// A session's records carry what its builds touched, and a state DB read
// back trusts them while each file's stat holds — the planted digest below
// is answered without a read — and not after.
func TestDigestSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	os.WriteFile(p, []byte("recorded"), 0o644)
	s := OpenDigests(nil)
	d := known(t, p)
	recs := s.Records()
	if len(recs) != 1 || recs[0].Digest != d {
		t.Fatalf("session records %v, want the one file it hashed", recs)
	}
	recs[0].Digest = "planted"
	digests.mu.Lock()
	digests.files = map[fileID]*digestEntry{}
	digests.mu.Unlock()
	OpenDigests(recs)
	if got, n, _ := FileDigest(p); got != "planted" || n != 0 {
		t.Errorf("a loaded record was not trusted: %s, %d bytes read", got, n)
	}
	os.WriteFile(p, []byte("RECORDED"), 0o644)
	if got, n, _ := FileDigest(p); got != HashBytes([]byte("RECORDED")) || n != 8 {
		t.Errorf("a loaded record outlived its stat: %s, %d bytes read", got, n)
	}
}

// NoteDigest takes a caller's word for bytes it placed, but carries a digest
// over a link only to the same file, unchanged in size and mtime. Where the
// file system's timestamps are coarse, a note taken in the tick of the
// placement is racily clean and not taken at all.
func TestNoteDigest(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	os.WriteFile(src, []byte("linked bytes"), 0o444)
	digest := known(t, src)
	fi, _ := os.Stat(src)
	taken := notesTaken(t, dir)
	if !taken {
		t.Log("coarse timestamps here: notes right after a placement are racily clean")
	}

	if err := LinkOrCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	if dfi, _ := os.Stat(dst); !os.SameFile(fi, dfi) {
		t.Fatal("LinkOrCopy on one file system did not link")
	}
	for _, p := range []string{src, dst} {
		if d, n, _ := FileDigest(p); d != digest || taken && n != 0 {
			t.Errorf("%s after the link: %s, read %d bytes; want the digest carried over", filepath.Base(p), d, n)
		}
	}
	// Linking again over the same file is a no-op and leaves no temp name.
	if err := LinkOrCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("%d entries after relinking, want src and dst", len(ents))
	}

	// A note against a file that has since changed is refused.
	os.Chmod(dst, 0o644)
	os.WriteFile(dst, []byte("LINKED BYTES"), 0o644)
	NoteDigest(dst, digest, fi)
	if d, _, _ := FileDigest(dst); d == digest {
		t.Error("a digest was carried over to a file rewritten since")
	}
	// From nil: the caller vouches for bytes it wrote.
	WriteFileAtomic(dst, []byte("vouched bytes"), 0o444)
	NoteDigest(dst, "vouched", nil)
	if d, n, _ := FileDigest(dst); taken && (d != "vouched" || n != 0) {
		t.Errorf("a note for bytes the caller placed was not taken: %s", d)
	}
}

// LinkFile links only the file the caller looked at: a file swapped in under
// the source's name is not linked, and nothing is left behind.
func TestLinkFileRefusesASwappedSource(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	os.WriteFile(src, []byte("verified"), 0o444)
	fi, _ := os.Stat(src)
	WriteFileAtomic(src, []byte("swapped!"), 0o444)
	if err := LinkFile(src, dst, fi); err == nil {
		t.Fatal("LinkFile linked a file other than the one described")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("%d entries after a refused link, want src alone", len(ents))
	}
}

// LinkOrCopy falls back to a copy where no link can be made.
func TestLinkOrCopyAcrossFileSystems(t *testing.T) {
	other, err := os.MkdirTemp("/dev/shm", "linkorcopy-")
	if err != nil {
		t.Skip("no second file system at /dev/shm")
	}
	defer os.RemoveAll(other)
	src, dst := filepath.Join(t.TempDir(), "src"), filepath.Join(other, "dst")
	os.WriteFile(src, []byte("bytes"), 0o444)
	if err := os.Link(src, filepath.Join(other, "probe")); !errors.Is(err, syscall.EXDEV) {
		t.Skipf("/dev/shm is not another file system here (link: %v)", err)
	}
	if err := LinkOrCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	sfi, _ := os.Stat(src)
	dfi, _ := os.Stat(dst)
	got, _ := os.ReadFile(dst)
	if os.SameFile(sfi, dfi) || !bytes.Equal(got, []byte("bytes")) || dfi.Mode().Perm() != 0o444 {
		t.Errorf("cross-file-system LinkOrCopy: same file %v, %q, mode %v; want a copy with the source's mode", os.SameFile(sfi, dfi), got, dfi.Mode())
	}
}

// WriteStreamAtomic's check refuses a write before anything is renamed.
func TestWriteStreamAtomicCheck(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	refuse := errors.New("refused")
	if err := WriteStreamAtomic(p, bytes.NewReader([]byte("data")), 0o444, func() error { return refuse }); !errors.Is(err, refuse) {
		t.Fatalf("WriteStreamAtomic = %v, want the check's error", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("a refused write left %d entries", len(ents))
	}
	if err := WriteStreamAtomic(p, bytes.NewReader([]byte("data")), 0o444, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(p); string(got) != "data" {
		t.Errorf("read back %q", got)
	}
}
