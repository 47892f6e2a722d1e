package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"firemarshal/internal/hostutil"
)

// publishOne publishes one artifact with the given content and mode.
func publishOne(t *testing.T, c *Cache, dir, name, content string, mode os.FileMode) (*Action, string) {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), mode); err != nil {
		t.Fatal(err)
	}
	a, err := c.Publish(hostutil.HashStrings("key", name, content), "img:"+name, []string{p})
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

// otherFileSystem returns a directory on another file system than dir, or
// skips the test.
func otherFileSystem(t *testing.T, dir string) string {
	t.Helper()
	other, err := os.MkdirTemp("/dev/shm", "cas-")
	if err != nil {
		t.Skip("no second file system at /dev/shm")
	}
	t.Cleanup(func() { os.RemoveAll(other) })
	probe := filepath.Join(dir, "probe")
	os.WriteFile(probe, nil, 0o644)
	defer os.Remove(probe)
	if err := os.Link(probe, filepath.Join(other, "probe")); !errors.Is(err, syscall.EXDEV) {
		t.Skipf("/dev/shm is not another file system here (link: %v)", err)
	}
	return other
}

// A publish of bytes the store already holds dedups: the artifact keeps its
// own inode, loses its write bits, and the blob is untouched.
func TestPublishDedupKeepsTheArtifact(t *testing.T) {
	c := NewCache(openTestStore(t), nil)
	dir := t.TempDir()
	a, first := publishOne(t, c, dir, "first", "same bytes", 0o644)
	_, second := publishOne(t, c, dir, "second", "same bytes", 0o644)
	blob, _ := os.Stat(c.Local().blobPath(a.Outputs[0].Digest))
	f1, _ := os.Stat(first)
	f2, _ := os.Stat(second)
	if !os.SameFile(f1, blob) || os.SameFile(f2, blob) || f2.Mode().Perm() != 0o444 {
		t.Errorf("first linked %v, second linked %v with mode %v; want the first linked and the second its own read-only file",
			os.SameFile(f1, blob), os.SameFile(f2, blob), f2.Mode().Perm())
	}
	if puts, dedups := c.Local().PutStats(); puts != 1 || dedups != 1 {
		t.Errorf("PutStats = %d puts, %d dedups; want 1 and 1", puts, dedups)
	}
}

// Where no link can be made, Publish streams the artifact into the store and
// Restore writes the bytes it verified: same bytes, separate inodes.
func TestPublishAndRestoreAcrossFileSystems(t *testing.T) {
	work := t.TempDir()
	s, err := Open(otherFileSystem(t, work))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(s, nil)
	a, target := publishOne(t, c, work, "img", "artifact bytes", 0o644)
	restored := filepath.Join(t.TempDir(), "img")
	if err := c.Restore(a, []string{restored}); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.Stat(s.blobPath(a.Outputs[0].Digest))
	for _, p := range []string{target, restored} {
		fi, _ := os.Stat(p)
		data, _ := os.ReadFile(p)
		if os.SameFile(fi, blob) || string(data) != "artifact bytes" || fi.Mode().Perm() != 0o444 {
			t.Errorf("%s: linked %v, %q, mode %v; want a read-only copy", p, os.SameFile(fi, blob), data, fi.Mode().Perm())
		}
	}
	if got, err := s.Get(a.Outputs[0].Digest); err != nil || string(got) != "artifact bytes" {
		t.Errorf("blob filed across file systems: %q, %v", got, err)
	}
}

// A restore wanting a mode the blob cannot carry copies: linking would
// change the mode of every other name the blob has.
func TestRestoreCopiesForAModeTheBlobCannotCarry(t *testing.T) {
	c := NewCache(openTestStore(t), nil)
	a, _ := publishOne(t, c, t.TempDir(), "img", "not executable", 0o644)
	exec := *a
	exec.Outputs = []Output{a.Outputs[0]}
	exec.Outputs[0].Mode = 0o755
	target := filepath.Join(t.TempDir(), "img")
	if err := c.Restore(&exec, []string{target}); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(target)
	blob, _ := os.Stat(c.Local().blobPath(a.Outputs[0].Digest))
	if os.SameFile(fi, blob) || fi.Mode().Perm() != 0o555 || blob.Mode().Perm() != 0o444 {
		t.Errorf("linked %v, target mode %v, blob mode %v; want a 0555 copy beside a 0444 blob", os.SameFile(fi, blob), fi.Mode().Perm(), blob.Mode().Perm())
	}
}

// A blob an older version wrote keeps its write bits until its first link
// takes them.
func TestRestoreTakesAnOldBlobsWriteBits(t *testing.T) {
	c := NewCache(openTestStore(t), nil)
	a, _ := publishOne(t, c, t.TempDir(), "img", "old blob", 0o644)
	bp := c.Local().blobPath(a.Outputs[0].Digest)
	if err := hostutil.WriteFileAtomic(bp, []byte("old blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(t.TempDir(), "img")
	if err := c.Restore(a, []string{target}); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(target)
	blob, _ := os.Stat(bp)
	if !os.SameFile(fi, blob) || blob.Mode().Perm() != 0o444 {
		t.Errorf("linked %v, blob mode %v; want a link to a now read-only blob", os.SameFile(fi, blob), blob.Mode().Perm())
	}
}

// An artifact a user rewrites in place — giving it back its write bits first
// — rewrites the blob it shares an inode with. The next restore of that blob
// detects it, quarantines it and heals it from the remote; it never restores
// the edited bytes, and without a remote it fails, which makes the build
// engine rebuild the task.
func TestRestoreNeverServesAnArtifactRewrittenInPlace(t *testing.T) {
	for _, withRemote := range []bool{false, true} {
		store := openTestStore(t)
		rem := newFakeRemote()
		var c *Cache
		if withRemote {
			c = NewCache(store, rem)
		} else {
			c = NewCache(store, nil)
		}
		a, artifact := publishOne(t, c, t.TempDir(), "img", "the real bytes", 0o644)
		digest := a.Outputs[0].Digest
		if withRemote {
			rem.blobs[digest] = []byte("the real bytes")
		}
		if err := os.Chmod(artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifact, []byte("THE EDIT BYTES"), 0o644); err != nil {
			t.Fatal(err)
		}

		target := filepath.Join(t.TempDir(), "img")
		err := c.Restore(a, []string{target})
		got, _ := os.ReadFile(target)
		switch {
		case withRemote && (err != nil || string(got) != "the real bytes"):
			t.Errorf("with a remote: restore %v, target %q; want the real bytes healed", err, got)
		case !withRemote && (!errors.Is(err, ErrCorrupt) || got != nil):
			t.Errorf("without a remote: restore %v, target %q; want ErrCorrupt and no target", err, got)
		}
		if store.Quarantined() != 1 {
			t.Errorf("remote=%v: %d blobs quarantined, want the edited one", withRemote, store.Quarantined())
		}
		if q, _ := os.ReadFile(store.quarantinePath(digest)); !bytes.Equal(q, []byte("THE EDIT BYTES")) {
			t.Errorf("remote=%v: quarantine holds %q, want the edited bytes", withRemote, q)
		}
	}
}

// Every blob the store writes is read-only from the start, whichever way its
// bytes arrived: it may become a work tree's artifact by hard link.
func TestStoreWritesBlobsReadOnly(t *testing.T) {
	s := openTestStore(t)
	put, _ := s.Put([]byte("put"))
	streamed := hostutil.HashBytes([]byte("streamed"))
	if _, err := s.PutStream(streamed, bytes.NewReader([]byte("streamed"))); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{put, streamed} {
		if fi, err := os.Stat(s.blobPath(d)); err != nil || fi.Mode().Perm() != blobMode {
			t.Errorf("blob %.12s: %v, %v; want mode %v", d, fi.Mode().Perm(), err, os.FileMode(blobMode))
		}
	}
}
