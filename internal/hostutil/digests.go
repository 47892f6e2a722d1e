package hostutil

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// The digest cache answers "what is this file's SHA-256" without reading the
// file while it is unchanged: for the dependency tracker's inputs (HashTree,
// per regular file), the artifact cache's publishes and restores, and the
// fleet's job specs. There is one per process, keyed by inode: it describes
// files, not callers, so every caller may share every entry (and the cache's
// callers keep their signatures). A digest is handed out only while
//
//   - the file's stat — device, inode, size, mtime and ctime, in ns — equals
//     the one recorded with it. A write moves mtime and ctime; a write whose
//     mtime is put back with os.Chtimes still moves ctime, which no call
//     sets; a replaced file is a new inode;
//   - that stat was taken before the bytes were read and found equal after
//     them, so an edit racing the read is never recorded;
//   - the entry was not racily clean when it was recorded (git's rule): its
//     ctime is older than a timestamp its own file system gave before the
//     read (fsStamp). Every change after that timestamp gets a ctime no
//     older than it, so it moves the stat; an entry that fails the rule —
//     on a file system with coarse timestamps, a file changed in the tick
//     it is hashed in, which a second edit in that tick would leave with an
//     equal stat — is not recorded, and the file is read again next time.
//     For a file the caller has just placed (NoteDigest) the timestamp is
//     taken right after placing it.
//
// Entries live for the process and, per work tree, in its state DB
// (DigestSession). What the cache cannot see is bytes that change under an
// unchanged stat — bit rot at rest — which `cache verify` re-hashes every
// blob for.
var digests = struct {
	mu    sync.Mutex
	files map[fileID]*digestEntry
	gen   uint64 // DigestSessions opened so far
}{files: map[fileID]*digestEntry{}}

// fileID is an inode; fileStat is what must still match for its digest to hold.
type fileID struct{ dev, ino uint64 }
type fileStat struct{ size, mtime, ctime int64 }

type digestEntry struct {
	stat   fileStat
	digest string
	used   uint64 // digests.gen when last looked up or recorded
}

// sessionsKept is how many DigestSessions an entry may go untouched before
// the cache forgets it: a bound on a long-lived process, not a policy.
const sessionsKept = 64

// lookupDigest returns the digest recorded for the file fi describes, if it
// still holds.
func lookupDigest(fi os.FileInfo) (string, bool) {
	id, st, ok := fileKey(fi)
	if !ok {
		return "", false
	}
	digests.mu.Lock()
	defer digests.mu.Unlock()
	e := digests.files[id]
	if e == nil || e.stat != st {
		return "", false
	}
	e.used = digests.gen
	return e.digest, true
}

// recordDigest remembers digest for the file (id, st), unless the entry is
// racily clean against stamp, a file-system timestamp taken before the
// digest was learnt.
func recordDigest(id fileID, st fileStat, digest string, stamp int64) {
	if st.ctime >= stamp {
		return
	}
	digests.mu.Lock()
	digests.files[id] = &digestEntry{stat: st, digest: digest, used: digests.gen}
	digests.mu.Unlock()
}

// stamps keeps one probe per device: a file with no name, opened beside the
// first file the cache meets on that device, whose ctime after a write is a
// fresh timestamp of that file system. A timestamp is taken again only when
// the last one is not already later than the file asked about.
var stamps = struct {
	mu     sync.Mutex
	probes map[uint64]*probe
}{probes: map[uint64]*probe{}}

type probe struct {
	f     *os.File
	ctime int64 // after the last write
}

// fsStamp returns a timestamp of the file system of the file (id, st) that is
// later than st.ctime if one can be had now; dir is where that file is, and
// where the device's probe is opened if it has none. It reports false where
// no probe can be opened, and then nothing on that device is recorded.
func fsStamp(dir string, id fileID, st fileStat) (int64, bool) {
	stamps.mu.Lock()
	defer stamps.mu.Unlock()
	p := stamps.probes[id.dev]
	if p == nil {
		f := openProbe(dir)
		if f == nil {
			return 0, false
		}
		var on fileID
		ok := false
		if fi, err := f.Stat(); err == nil {
			on, _, ok = fileKey(fi)
		}
		if !ok || on.dev != id.dev {
			f.Close()
			return 0, false
		}
		p = &probe{f: f}
		stamps.probes[id.dev] = p
	}
	// On a file system with multigrain timestamps, a write whose coarse time
	// is later than the probe's last ctime gets that coarse time, which can
	// equal the newest fine-grained timestamp handed out. A second write in
	// the same tick gets a fine-grained one, later than every change before
	// it: the Stat after each write asked for the probe's times.
	for i := 0; i < 2 && p.ctime <= st.ctime; i++ {
		if _, err := p.f.WriteAt([]byte{0}, 0); err != nil {
			return 0, false
		}
		fi, err := p.f.Stat()
		if err != nil {
			return 0, false
		}
		_, pst, _ := fileKey(fi)
		p.ctime = pst.ctime
	}
	return p.ctime, true
}

// FileDigest returns the SHA-256 of the file at path and how many bytes it
// read to learn it — none while the digest cache knows the file unchanged.
func FileDigest(path string) (string, int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return fileDigest(path, fi)
}

// fileDigest is FileDigest for a file the caller has just stat'ed.
func fileDigest(path string, fi os.FileInfo) (string, int64, error) {
	if d, ok := lookupDigest(fi); ok {
		return d, 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	before, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	id, st, keep := fileKey(before)
	var stamp int64
	if keep {
		stamp, keep = fsStamp(filepath.Dir(path), id, st)
	}
	digest, n, err := hashReader(f)
	if err != nil {
		return "", n, fmt.Errorf("hashing %s: %w", path, err)
	}
	if after, err := f.Stat(); err == nil && keep {
		if id2, st2, _ := fileKey(after); id2 == id && st2 == st {
			recordDigest(id, st, digest, stamp)
		}
	}
	return digest, n, nil
}

// NoteDigest records that the regular file at path holds the bytes digest
// names, for a caller that has just put them there. With from nil, the
// caller wrote path from bytes it had verified. Otherwise from is the file
// whose bytes the caller hashed or verified and then linked, renamed or
// chmodded to path; those move nothing but its ctime, so the note is taken
// only if path is still that file with the same size and mtime.
func NoteDigest(path, digest string, from os.FileInfo) {
	fi, err := os.Stat(path)
	if err != nil {
		return
	}
	if from != nil && (!os.SameFile(from, fi) || from.Size() != fi.Size() || !from.ModTime().Equal(fi.ModTime())) {
		return
	}
	id, st, ok := fileKey(fi)
	if !ok {
		return
	}
	if stamp, ok := fsStamp(filepath.Dir(path), id, st); ok {
		recordDigest(id, st, digest, stamp)
	}
}

// LinkFile makes dst a hard link to src, replacing whatever dst was in one
// rename: the link is made under a temporary name beside dst first. src
// must still be the file want describes; a file swapped in under its name
// since the caller looked is not linked.
func LinkFile(src, dst string, want os.FileInfo) error {
	if cur, err := os.Lstat(dst); err == nil && os.SameFile(cur, want) {
		// Already that file. (Renaming one link over another of the same
		// inode would succeed without removing the temporary name.)
		return nil
	}
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%s-%d", filepath.Base(dst), rand.Uint64()))
	if err := os.Link(src, tmp); err != nil {
		return err
	}
	if fi, err := os.Lstat(tmp); err != nil || !os.SameFile(fi, want) {
		os.Remove(tmp)
		return fmt.Errorf("hostutil: %s changed while it was being linked", src)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LinkOrCopy makes dst hold src's bytes — a hard link where the two share a
// file system, a copy where they cannot — replacing dst in one rename either
// way. A digest the cache holds for src carries over to the link.
func LinkOrCopy(src, dst string) error {
	fi, err := os.Stat(src)
	if err != nil {
		return err
	}
	if err := LinkFile(src, dst, fi); err != nil {
		return CopyFile(src, dst)
	}
	if d, ok := lookupDigest(fi); ok {
		NoteDigest(dst, d, fi)
	}
	return nil
}

// DigestRecord is one digest-cache entry as a work tree's state DB keeps it.
type DigestRecord struct {
	Dev    uint64 `json:"dev"`
	Ino    uint64 `json:"ino"`
	Size   int64  `json:"size"`
	Mtime  int64  `json:"mtime"`
	Ctime  int64  `json:"ctime"`
	Digest string `json:"digest"`
}

// DigestSession is one work tree's share of the digest cache: the records its
// state DB persisted, merged in when the DB is read, and the entries its
// builds touch, persisted back when the DB is written. Every record passed
// the racy-clean rule when it was recorded, so a reread trusts it as the
// process that recorded it did.
type DigestSession struct{ gen uint64 }

// OpenDigests starts a session from the records of a state DB.
func OpenDigests(recs []DigestRecord) *DigestSession {
	digests.mu.Lock()
	defer digests.mu.Unlock()
	digests.gen++
	s := &DigestSession{gen: digests.gen}
	for id, e := range digests.files {
		if e.used+sessionsKept < s.gen {
			delete(digests.files, id)
		}
	}
	for _, r := range recs {
		id := fileID{r.Dev, r.Ino}
		digests.files[id] = &digestEntry{stat: fileStat{r.Size, r.Mtime, r.Ctime}, digest: r.Digest, used: s.gen}
	}
	return s
}

// Records returns the entries looked up or recorded since the session
// opened, in a fixed order, for the state DB to persist.
func (s *DigestSession) Records() []DigestRecord {
	digests.mu.Lock()
	var recs []DigestRecord
	for id, e := range digests.files {
		if e.used >= s.gen {
			recs = append(recs, DigestRecord{Dev: id.dev, Ino: id.ino, Size: e.stat.size, Mtime: e.stat.mtime, Ctime: e.stat.ctime, Digest: e.digest})
		}
	}
	digests.mu.Unlock()
	slices.SortFunc(recs, func(a, b DigestRecord) int { return cmp.Or(cmp.Compare(a.Dev, b.Dev), cmp.Compare(a.Ino, b.Ino)) })
	return recs
}
