package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"firemarshal/internal/hostutil"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t)
	data := []byte("boot binary bytes")
	digest, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if digest != hostutil.HashBytes(data) {
		t.Fatalf("digest mismatch: %s", digest)
	}
	if !s.Has(digest) {
		t.Fatal("Has after Put = false")
	}
	got, err := s.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q", got)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s := openTestStore(t)
	d1, _ := s.Put([]byte("same"))
	d2, _ := s.Put([]byte("same"))
	if d1 != d2 {
		t.Fatal("identical content produced different digests")
	}
	puts, dedups := s.PutStats()
	if puts != 1 || dedups != 1 {
		t.Fatalf("puts=%d dedups=%d, want 1/1", puts, dedups)
	}
	u, err := s.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.Blobs != 1 {
		t.Fatalf("blob count %d, want 1 (content stored once)", u.Blobs)
	}
}

func TestGetMissing(t *testing.T) {
	s := openTestStore(t)
	_, err := s.Get(hostutil.HashBytes([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("zzz-not-a-digest"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("invalid digest err = %v, want ErrNotFound", err)
	}
}

// A blob truncated on disk must be detected, reported as corrupt, and
// removed so a later Put can repopulate it.
func TestTruncatedBlobDetected(t *testing.T) {
	s := openTestStore(t)
	data := []byte("a disk image that will be truncated")
	digest, _ := s.Put(data)
	if err := hostutil.WriteFileAtomic(s.blobPath(digest), data[:5], 0o444); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get(digest)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if s.Has(digest) {
		t.Fatal("corrupt blob should have been removed")
	}
	// The store self-heals on the next Put.
	if _, err := s.Put(data); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(digest); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("re-put blob unreadable: %v", err)
	}
}

// A blob whose bytes were replaced wholesale (digest mismatch, same length)
// must never be served.
func TestDigestMismatchDetected(t *testing.T) {
	s := openTestStore(t)
	data := []byte("original artifact")
	digest, _ := s.Put(data)
	bogus := []byte("tampered artifact")
	if err := hostutil.WriteFileAtomic(s.blobPath(digest), bogus, 0o444); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// Concurrent writers of the same blob must all succeed and leave exactly
// one intact copy (the atomic-write path: unique temp file + rename).
func TestConcurrentWritersSameBlob(t *testing.T) {
	s := openTestStore(t)
	data := bytes.Repeat([]byte("artifact"), 4096)
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Put(data)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	digest := hostutil.HashBytes(data)
	got, err := s.Get(digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("blob corrupt after concurrent writes: %v", err)
	}
	u, _ := s.Usage()
	if u.Blobs != 1 {
		t.Fatalf("blob count %d, want 1", u.Blobs)
	}
}

func TestActionRoundTrip(t *testing.T) {
	s := openTestStore(t)
	digest, _ := s.Put([]byte("out"))
	key := hostutil.HashStrings("task", "bin:w")
	a := &Action{Key: key, Task: "bin:w", Outputs: []Output{{Name: "w-bin", Digest: digest, Mode: 0o644, Size: 3}}}
	if err := s.PutAction(a); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetAction(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != "bin:w" || len(got.Outputs) != 1 || got.Outputs[0].Digest != digest {
		t.Fatalf("round-trip mangled entry: %+v", got)
	}
	if _, err := s.GetAction(hostutil.HashStrings("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing action err = %v", err)
	}
}

func TestGC(t *testing.T) {
	s := openTestStore(t)
	keep, _ := s.Put([]byte("kept artifact"))
	drop, _ := s.Put([]byte("dropped artifact"))
	liveKey := hostutil.HashStrings("live")
	deadKey := hostutil.HashStrings("dead")
	s.PutAction(&Action{Key: liveKey, Task: "bin:a", Outputs: []Output{{Name: "a-bin", Digest: keep}}})
	s.PutAction(&Action{Key: deadKey, Task: "bin:b", Outputs: []Output{{Name: "b-bin", Digest: drop}}})
	pinned, _ := s.Put([]byte("checkpoint page of a live run"))

	st, err := s.GC(map[string]bool{liveKey: true}, map[string]bool{pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ActionsRemoved != 1 || st.BlobsRemoved != 1 {
		t.Fatalf("gc stats %+v, want 1 action + 1 blob removed", st)
	}
	if st.BytesReclaimed != int64(len("dropped artifact")) {
		t.Fatalf("bytes reclaimed %d", st.BytesReclaimed)
	}
	if !s.Has(keep) || s.Has(drop) {
		t.Fatal("gc removed the wrong blob")
	}
	if !s.Has(pinned) {
		t.Fatal("gc removed a pinned blob")
	}
	if _, err := s.GetAction(liveKey); err != nil {
		t.Fatal("gc removed the live action")
	}

	// With the pin released, the blob is collectible.
	st, err = s.GC(map[string]bool{liveKey: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Has(pinned) || st.BlobsRemoved != 1 {
		t.Fatal("unpinned checkpoint blob survived gc")
	}
}

func TestVerifyReportsProblems(t *testing.T) {
	s := openTestStore(t)
	good, _ := s.Put([]byte("good"))
	bad, _ := s.Put([]byte("will corrupt"))
	hostutil.WriteFileAtomic(s.blobPath(bad), []byte("corrupted!!!"), 0o444)
	key := hostutil.HashStrings("k")
	s.PutAction(&Action{Key: key, Task: "bin:w", Outputs: []Output{{Name: "w-bin", Digest: bad}}})

	problems, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt blob is flagged (and removed), and the action that
	// referenced it is flagged as missing its output.
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want 2", problems)
	}
	if s.Has(bad) {
		t.Fatal("verify should remove corrupt blobs")
	}
	if !s.Has(good) {
		t.Fatal("verify removed a healthy blob")
	}

	if problems, _ = s.Verify(); len(problems) != 1 {
		t.Fatalf("second verify problems = %v, want only the dangling action", problems)
	}
}

// Cache-level behaviour without a remote: restore falls back cleanly when a
// referenced blob is gone.
func TestCacheRestoreMissingBlob(t *testing.T) {
	c := NewCache(openTestStore(t), nil)
	dir := t.TempDir()
	src := filepath.Join(dir, "out")
	os.WriteFile(src, []byte("artifact"), 0o644)
	a, err := c.Publish(hostutil.HashStrings("key"), "bin:w", []string{src})
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the blob; restore must fail (caller then re-executes the task).
	os.Remove(c.Local().blobPath(a.Outputs[0].Digest))
	if err := c.Restore(a, []string{filepath.Join(dir, "restored")}); err == nil {
		t.Fatal("restore of missing blob should fail")
	}
}

func TestCachePublishRestore(t *testing.T) {
	c := NewCache(openTestStore(t), nil)
	dir := t.TempDir()
	var targets []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("out%d", i))
		os.WriteFile(p, []byte(fmt.Sprintf("artifact %d", i)), 0o755)
		targets = append(targets, p)
	}
	key := hostutil.HashStrings("key")
	a, err := c.Publish(key, "img:w", targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup(key); got == nil || len(got.Outputs) != 3 {
		t.Fatalf("lookup after publish: %+v", got)
	}
	restoreDir := t.TempDir()
	var restored []string
	for i := range targets {
		restored = append(restored, filepath.Join(restoreDir, filepath.Base(targets[i])))
	}
	if err := c.Restore(a, restored); err != nil {
		t.Fatal(err)
	}
	for i, p := range restored {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("artifact %d", i); string(data) != want {
			t.Fatalf("restored %s = %q, want %q", p, data, want)
		}
		// The exec bits survive; the write bits do not: the target is the
		// blob's own inode, as the published original now is.
		fi, _ := os.Stat(p)
		if fi.Mode().Perm() != 0o555 {
			t.Fatalf("restored mode %v, want 0555", fi.Mode().Perm())
		}
		blob, _ := os.Stat(c.Local().blobPath(a.Outputs[i].Digest))
		orig, _ := os.Stat(targets[i])
		if !os.SameFile(fi, blob) || !os.SameFile(orig, blob) {
			t.Fatalf("%s: published and restored targets are not hard links to their blob", filepath.Base(p))
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.BlobsRestored != 3 || st.Published != 1 {
		t.Fatalf("stats %+v", st)
	}
}
