// Package cas implements a SHA-256 content-addressed artifact store with an
// action cache, the persistence layer behind FireMarshal's shared build
// cache. The store holds two kinds of entries:
//
//   - blobs: immutable artifact bytes addressed by their SHA-256 digest
//     (boot binaries, kernels, disk images). Identical content is stored
//     exactly once no matter how many workloads produce it.
//   - actions: records mapping a task digest (the hash of a build step's
//     name, input hashes, and output names) to the digests of the outputs
//     that step produced. The build engine consults actions before running
//     a task and restores outputs from blobs on a hit.
//
// Blob writes are atomic (temp file + rename via hostutil), or a hard link
// of an artifact already on disk, and blobs are read-only; action records
// are appended whole to one CRC-framed log (actionlog.go), so
// concurrent builders sharing one store never observe partial entries;
// neither is fsynced — an entry lost to a power failure is a rebuild.
// Reads re-verify: every blob's digest when it is returned, every action
// record's CRC when it is read, so corruption is detected — a corrupt
// record is skipped and counted, and a corrupt blob is moved aside into
// <dir>/quarantine and reported as missing, degrading to a
// refetch/rebuild rather than a wrong artifact. Quarantined blobs
// are invisible to Get/Has/Usage/GC/Verify (only <dir>/blobs is
// walked), preserved for post-mortem, and rewritten in place by the
// next Put or a `cache verify -repair`. This operationalizes the
// paper's reproducibility guarantee: identical inputs ⇒ identical
// digest ⇒ one stored artifact.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"firemarshal/internal/hostutil"
)

// ErrNotFound reports a blob or action absent from a store.
var ErrNotFound = errors.New("cas: not found")

// ErrCorrupt reports a blob whose bytes no longer match its digest.
var ErrCorrupt = errors.New("cas: corrupt blob")

// ErrInvalid marks a write refused because its digest or action key is not
// one: the caller's mistake, not the store's.
var ErrInvalid = errors.New("cas: invalid key")

// Store is a content-addressed store rooted at a directory (layout 3):
//
//	<dir>/blobs/<digest>  artifact bytes, digest = sha256 hex, read-only and
//	                      often the same inode as a work tree's artifact; the
//	                      temp files of writes in flight (.tmp-*) sit beside them
//	<dir>/actions         the action log: one CRC-framed record per line
//	<dir>/quarantine/     corrupt blobs moved aside
//
// One inode per distinct artifact and one for all action records. A Store
// has no Close: its one descriptor, the log's, goes with it.
type Store struct {
	dir    string
	tamper Tamper
	log    actionLog

	mu          sync.Mutex
	puts        uint64         // blobs newly written
	dedups      uint64         // puts that found the blob already present
	quarantined uint64         // corrupt blobs moved into <dir>/quarantine
	held        map[string]int // digests pinned against a concurrent GC sweep

	// heldUntil records when a digest's last hold was released. A sweep
	// must spare a digest held at ANY point since its snapshot — a publish
	// may finish (and release) after the mark phase already missed its
	// action but before the sweep reaches its blob. GC prunes entries
	// older than its own snapshot once they can no longer matter.
	heldUntil map[string]time.Time

	// gcMu serializes collections: concurrent sweeps would double-count
	// stats and race each other's heldUntil pruning for no benefit.
	gcMu sync.Mutex

	// gcSweepHook, when non-nil, runs after GC's mark phase and before
	// the blob sweep — the test seam for deterministic GC-vs-Put races.
	gcSweepHook func()
}

// Tamper is a fault-injection hook on the blob I/O paths, implemented by
// the chaos package (duck-typed here to keep cas dependency-free).
// ReadBlob may return altered bytes for what a kept read (Get, Cache.Blob)
// read from disk; WriteBlob may alter the bytes Put is about to write or
// fail the write outright. Linked, streamed and verify-only paths never
// consult it. Production stores leave it nil.
type Tamper interface {
	ReadBlob(digest string, data []byte) []byte
	WriteBlob(digest string, data []byte) ([]byte, error)
}

// SetTamper installs a fault-injection hook. Call before the store is
// shared across goroutines.
func (s *Store) SetTamper(t Tamper) { s.tamper = t }

// Action is one action-cache entry: the outputs a task produced for a given
// input digest. Outputs are ordered by the sorted base names of the task's
// targets, so a restore into a different checkout maps positionally.
type Action struct {
	// Key is the task digest this entry is stored under.
	Key string `json:"key"`
	// Task is the producing task's name (for stats and debugging).
	Task string `json:"task"`
	// Outputs lists the produced artifacts in sorted-target order.
	Outputs []Output `json:"outputs"`
}

// Output is one produced artifact of an action.
type Output struct {
	// Name is the target's base name (stable across checkouts).
	Name string `json:"name"`
	// Digest addresses the artifact bytes in the blob store.
	Digest string `json:"digest"`
	// Mode is the file mode to restore with.
	Mode uint32 `json:"mode"`
	// Size is the artifact size in bytes (for stats without a blob read).
	Size int64 `json:"size"`
}

// Usage summarizes a store's disk contents.
type Usage struct {
	Blobs     int
	BlobBytes int64
	Actions   int
}

// GCStats reports what a garbage collection removed.
type GCStats struct {
	ActionsRemoved int
	BlobsRemoved   int
	// TempsRemoved counts temp files a killed writer left behind.
	TempsRemoved   int
	BytesReclaimed int64
}

// Open initializes (or reuses) a store at dir. A store in an older layout
// is migrated first, once (migrate.go); one announcing a newer layout is
// refused.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("cas: opening store: %w", err)
	}
	s := &Store{dir: dir, held: map[string]int{}}
	s.log.path = filepath.Join(dir, "actions")
	if fi, err := os.Stat(s.log.path); err != nil || fi.IsDir() {
		// No log yet: a fresh store, an older layout, or a migration a
		// crash cut short.
		if err := migrate(dir); err != nil {
			return nil, fmt.Errorf("cas: migrating %s to layout %d: %w", dir, layoutVersion, err)
		}
	}
	if _, err := s.log.reopen(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// BlobPath is where the store rooted at storeDir keeps the blob digest —
// the one statement of that rule, for the store itself and for whoever
// corrupts or removes a blob behind its back (tests, chaos planting).
func BlobPath(storeDir, digest string) string {
	return filepath.Join(storeDir, "blobs", digest)
}

func (s *Store) blobPath(digest string) string { return BlobPath(s.dir, digest) }

// quarantinePath is where a corrupt blob is moved aside. The quarantine
// directory is deliberately outside walkBlobs' reach, so quarantined bytes
// never count toward usage, never satisfy reads, and are never GC'd —
// they exist only for post-mortem inspection.
func (s *Store) quarantinePath(digest string) string {
	return filepath.Join(s.dir, "quarantine", digest)
}

// quarantine moves a corrupt blob aside instead of deleting it. Rename
// is atomic, so concurrent readers either see the (corrupt, re-verified)
// blob or a miss — never a partial file; when several readers race to
// quarantine the same blob, exactly one rename wins and the rest are
// harmless no-ops.
func (s *Store) quarantine(digest string) {
	qp := s.quarantinePath(digest)
	if err := os.MkdirAll(filepath.Dir(qp), 0o755); err != nil {
		os.Remove(s.blobPath(digest)) // fall back to the old delete-on-corrupt
		return
	}
	if err := os.Rename(s.blobPath(digest), qp); err != nil {
		if !os.IsNotExist(err) {
			os.Remove(s.blobPath(digest))
		}
		return
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
}

// Quarantined reports how many corrupt blobs this store handle has moved
// into quarantine since it was opened.
func (s *Store) Quarantined() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// validDigest guards path construction against junk keys.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for _, c := range d {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Hold pins digest against a concurrent GC sweep until the returned
// release is called (calling it more than once is safe). Put paths hold
// their digest for the duration of the write automatically; multi-step
// publishers (blobs first, then the action that references them) hold
// across the whole publish so a sweep between the steps cannot reap a
// blob its about-to-exist action references.
func (s *Store) Hold(digest string) (release func()) {
	s.mu.Lock()
	if s.held == nil {
		s.held = map[string]int{}
	}
	s.held[digest]++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			if s.held[digest]--; s.held[digest] <= 0 {
				delete(s.held, digest)
				if s.heldUntil == nil {
					s.heldUntil = map[string]time.Time{}
				}
				s.heldUntil[digest] = time.Now()
			}
			s.mu.Unlock()
		})
	}
}

// heldSince reports whether digest is held now or was held at any moment
// at or after start — the guard GC's sweep consults. The "was held"
// half closes the publish race: a hold taken before the mark phase and
// released before the sweep still means an action referencing the blob
// may have landed after the snapshot.
func (s *Store) heldSince(digest string, start time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held[digest] > 0 || !s.heldUntil[digest].Before(start)
}

// blobMode is the mode of every blob the store writes: no write bits, because
// a blob shares its inode with the work-tree artifacts linked to it, and a
// write into one would be a write into all of them. Artifacts are replaced,
// never rewritten.
const blobMode = 0o444

// Put stores data and returns its digest. Storing already-present content
// is a cheap no-op (counted as a dedup).
func (s *Store) Put(data []byte) (string, error) {
	digest := hostutil.HashBytes(data)
	return digest, s.put(digest, data)
}

// put stores data under digest, which the caller has just computed from or
// verified against these same bytes — Put's own hash, or the remote client's
// check of a fetched body.
func (s *Store) put(digest string, data []byte) error {
	if !validDigest(digest) {
		return fmt.Errorf("%w: digest %q", ErrInvalid, digest)
	}
	release := s.Hold(digest)
	defer release()
	path := s.blobPath(digest)
	if _, err := os.Stat(path); err == nil {
		s.count(&s.dedups)
		return nil
	}
	// The digest is of the caller's bytes; tampering after hashing means an
	// injected torn write lands under the full digest — exactly the
	// corruption shape Get's re-verification must catch.
	if s.tamper != nil {
		var err error
		if data, err = s.tamper.WriteBlob(digest, data); err != nil {
			return fmt.Errorf("cas: writing blob %s: %w", digest, err)
		}
	}
	if err := hostutil.WriteFileAtomic(path, data, blobMode); err != nil {
		return fmt.Errorf("cas: writing blob %s: %w", digest, err)
	}
	s.count(&s.puts)
	return nil
}

// file files the artifact at path as a blob and returns its digest and its
// stat from before: hashed in one streamed pass (none when the digest cache
// knows it), stripped of its write bits, and linked into the store, which
// then holds no second copy. A blob already present dedups and leaves the
// artifact its own inode. Where no link can be made — another file system —
// the artifact is streamed in through PutStream, which refuses it if it no
// longer hashes to the digest.
func (s *Store) file(path string) (string, os.FileInfo, error) {
	fi, err := os.Lstat(path)
	if err != nil {
		return "", nil, err
	}
	digest, _, err := hostutil.FileDigest(path)
	if err != nil {
		return "", nil, err
	}
	release := s.Hold(digest)
	defer release()
	if perm := fi.Mode().Perm(); perm&0o222 != 0 {
		if err := os.Chmod(path, perm&^0o222); err != nil {
			return "", nil, err
		}
	}
	filed := false
	if fi.Mode().IsRegular() {
		switch err := os.Link(path, s.blobPath(digest)); {
		case err == nil:
			s.count(&s.puts)
			filed = true
		case errors.Is(err, fs.ErrExist):
			s.count(&s.dedups)
			filed = true
		}
	}
	if !filed {
		f, err := os.Open(path)
		if err != nil {
			return "", nil, err
		}
		defer f.Close()
		if _, err := s.PutStream(digest, f); err != nil {
			return "", nil, err
		}
	}
	hostutil.NoteDigest(path, digest, fi)
	return digest, fi, nil
}

// link makes target a hard link to blob digest, whose bytes the caller has
// just verified from the file verified describes — a blob an older version
// wrote loses its write bits first — and tells the digest cache.
func (s *Store) link(digest, target string, verified os.FileInfo) error {
	blob := s.blobPath(digest)
	if perm := verified.Mode().Perm(); perm&0o222 != 0 {
		if err := os.Chmod(blob, perm&^0o222); err != nil {
			return err
		}
	}
	if err := hostutil.LinkFile(blob, target, verified); err != nil {
		return err
	}
	hostutil.NoteDigest(target, digest, verified)
	return nil
}

func (s *Store) count(n *uint64) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}

// Has reports whether a blob is present (without verifying its content).
func (s *Store) Has(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	_, err := os.Stat(s.blobPath(digest))
	return err == nil
}

// Get returns a blob's bytes, re-verifying the digest. A blob whose content
// no longer matches (truncation, bit rot) is moved into quarantine so the
// next write can repopulate it, and ErrCorrupt is returned — the caller's
// cue to refetch from a remote (self-heal) or rebuild.
func (s *Store) Get(digest string) ([]byte, error) {
	data, _, err := s.read(digest, true)
	return data, err
}

// read is Get that also returns the stat of the blob file it verified, and
// that, without keep, streams the file through SHA-256 without keeping its
// bytes, for a caller that only needs them verified. A tamper hook sees the
// bytes of a kept read.
func (s *Store) read(digest string, keep bool) ([]byte, os.FileInfo, error) {
	if !validDigest(digest) {
		return nil, nil, fmt.Errorf("cas: %w: invalid digest %q", ErrNotFound, digest)
	}
	f, err := os.Open(s.blobPath(digest))
	if os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("cas: blob %s: %w", digest, ErrNotFound)
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	h := sha256.New()
	var data []byte
	if !keep {
		_, err = io.Copy(h, f)
	} else {
		buf := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
		if _, err = buf.ReadFrom(f); err == nil {
			data = buf.Bytes()
			if s.tamper != nil {
				data = s.tamper.ReadBlob(digest, data)
			}
			h.Write(data)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if hex.EncodeToString(h.Sum(nil)) != digest {
		s.quarantine(digest)
		return nil, nil, fmt.Errorf("cas: blob %s: %w", digest, ErrCorrupt)
	}
	return data, fi, nil
}

// ErrRead marks a PutStream failure caused by the caller's reader — an
// upload torn mid-body — as opposed to store-side I/O. The cache server
// uses it to answer a disconnecting client with a 4xx instead of
// blaming itself with a 5xx.
var ErrRead = errors.New("cas: blob source read failed")

// readTracker counts what a copy read and remembers whether it failed on the
// read side.
type readTracker struct {
	r   io.Reader
	n   int64
	err error
}

func (t *readTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n += int64(n)
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}

// OpenBlob opens a blob for a streaming read, returning its size. This is
// the lock-free fast path the cache server streams GET bodies from: no
// verification happens here (re-hashing would mean reading the blob
// twice), because the remote client re-verifies the digest of every body
// it receives; `cache verify` covers bit rot at rest.
func (s *Store) OpenBlob(digest string) (io.ReadCloser, int64, error) {
	if !validDigest(digest) {
		return nil, 0, fmt.Errorf("cas: %w: invalid digest %q", ErrNotFound, digest)
	}
	f, err := os.Open(s.blobPath(digest))
	if os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("cas: blob %s: %w", digest, ErrNotFound)
	}
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err == nil && !fi.Mode().IsRegular() {
		err = fmt.Errorf("cas: blob %s: not a regular file", digest)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// BlobSize reports a present blob's size without opening it.
func (s *Store) BlobSize(digest string) (int64, error) {
	if !validDigest(digest) {
		return 0, fmt.Errorf("cas: %w: invalid digest %q", ErrNotFound, digest)
	}
	fi, err := os.Stat(s.blobPath(digest))
	if os.IsNotExist(err) {
		return 0, fmt.Errorf("cas: blob %s: %w", digest, ErrNotFound)
	}
	if err == nil && !fi.Mode().IsRegular() {
		err = fmt.Errorf("cas: blob %s: not a regular file", digest)
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// PutStream stores a blob from r, hashing while it spills to a temp file
// beside its destination — the whole-blob buffer of Put never exists,
// so a 1 GiB upload from outside costs the server pages, not heap. The
// temp file only renames into place if the streamed bytes hash to digest;
// a mismatch or torn read leaves no trace. Returns the byte count written
// (or the existing size on dedup).
func (s *Store) PutStream(digest string, r io.Reader) (int64, error) {
	if !validDigest(digest) {
		return 0, fmt.Errorf("%w: digest %q", ErrInvalid, digest)
	}
	release := s.Hold(digest)
	defer release()
	path := s.blobPath(digest)
	if fi, err := os.Stat(path); err == nil {
		s.count(&s.dedups)
		return fi.Size(), nil
	}
	h := sha256.New()
	tr := &readTracker{r: r}
	err := hostutil.WriteStreamAtomic(path, io.TeeReader(tr, h), blobMode, func() error {
		if hex.EncodeToString(h.Sum(nil)) != digest {
			return fmt.Errorf("cas: blob %s: streamed bytes do not match digest: %w", digest, ErrCorrupt)
		}
		return nil
	})
	switch {
	case err == nil:
		s.count(&s.puts)
		return tr.n, nil
	case tr.err != nil:
		return 0, fmt.Errorf("cas: streaming blob %s: %w: %w", digest, ErrRead, err)
	case errors.Is(err, ErrCorrupt):
		return 0, err
	}
	return 0, fmt.Errorf("cas: writing blob %s: %w", digest, err)
}

// PutAction stores an action-cache entry under its key: one record
// appended to the action log. An identical re-put is a no-op; a different
// record for the key supersedes the earlier one.
func (s *Store) PutAction(a *Action) error {
	if !validDigest(a.Key) {
		return fmt.Errorf("%w: action key %q", ErrInvalid, a.Key)
	}
	return s.log.put(a)
}

// GetAction returns the entry for key, or ErrNotFound.
func (s *Store) GetAction(key string) (*Action, error) {
	if !validDigest(key) {
		return nil, fmt.Errorf("cas: %w: invalid action key %q", ErrNotFound, key)
	}
	return s.log.get(key)
}

// walkChunk bounds how many directory entries walkBlobs holds at a time.
const walkChunk = 1024

// isTemp reports the name of a write in flight (or of one that was killed).
func isTemp(name string) bool { return strings.HasPrefix(name, ".tmp-") }

// walkBlobs visits every regular file in <dir>/blobs — blobs, and temp
// files, which callers tell apart with isTemp — reading the directory in
// bounded chunks, never as one sorted slice.
func (s *Store) walkBlobs(visit func(name string, fi fs.FileInfo) error) error {
	d, err := os.Open(filepath.Join(s.dir, "blobs"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer d.Close()
	for {
		entries, err := d.ReadDir(walkChunk)
		for _, e := range entries {
			fi, ierr := e.Info()
			if ierr != nil || !fi.Mode().IsRegular() {
				continue // gone since it was listed (a racing GC or quarantine), or no entry of ours
			}
			if err := visit(e.Name(), fi); err != nil {
				return err
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Actions lists every stored action entry, sorted by key.
func (s *Store) Actions() ([]*Action, error) { return s.log.all() }

// Usage reports blob and action counts and total blob bytes.
func (s *Store) Usage() (Usage, error) {
	var u Usage
	err := s.walkBlobs(func(name string, fi fs.FileInfo) error {
		if !isTemp(name) {
			u.Blobs++
			u.BlobBytes += fi.Size()
		}
		return nil
	})
	if err != nil {
		return u, err
	}
	actions, err := s.log.all()
	u.Actions = len(actions)
	return u, err
}

// PutStats returns how many blobs were newly written vs deduplicated since
// the store was opened.
func (s *Store) PutStats() (puts, dedups uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.dedups
}

// staleTempAge is how much older than the GC's start a temp file must be
// for the sweep to call it abandoned. Nothing in the tree writes one blob
// for minutes: a remote body is bounded by the request timeout and a local
// one is a single write.
const staleTempAge = time.Hour

// GC is a concurrent mark-and-sweep: it drops action records whose key
// is not in live, then removes blobs no remaining record references.
// Callers pass the set of action keys still reachable from build state
// (ref-counting by reachability) and, in pinned, blob digests that must
// survive regardless — e.g. the pages and platform state of a resumable
// run's checkpoints, which no action references but `-resume` depends on.
//
// Dead records go by compacting the action log, which holds appenders —
// of any handle or process — off for the length of one small rewrite and
// so loses none of them. Blob traffic is never blocked; the live and
// referenced sets are a snapshot taken at GC entry, so the sweep guards
// against racing traffic instead of locking it out:
//
//   - entries written after the snapshot instant (a record's append
//     time, a blob file's mtime, after the GC start) are skipped — a Put
//     or PutAction landing mid-sweep survives even though the stale
//     snapshot doesn't reference it;
//   - digests held open at any point since the snapshot — by an
//     in-flight Put/PutStream or an explicit Hold (a publish
//     between its blob and action writes) — are skipped regardless of
//     mtime. "At any point" matters: a publish can complete (hold
//     released, action written) after the mark phase already read the
//     log, so a point-in-time held check at sweep time would still
//     reap its blob.
//
// Anything spared by a guard is simply unreferenced garbage to the NEXT
// collection if it really was garbage — the guards only delay
// reclamation, never leak it. The sweep also removes temp files more than
// staleTempAge old, which only a killed writer leaves. Collections on one
// Store handle are serialized.
func (s *Store) GC(live, pinned map[string]bool) (GCStats, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var st GCStats
	start := time.Now()
	referenced, removed, err := s.log.compact(filepath.Join(s.dir, "blobs"), func(key string, at int64) bool {
		return live[key] || at >= start.UnixNano() // appended mid-collection: the snapshot can't judge it
	})
	if err != nil {
		return st, err
	}
	st.ActionsRemoved = removed
	if s.gcSweepHook != nil {
		s.gcSweepHook()
	}
	err = s.walkBlobs(func(name string, fi fs.FileInfo) error {
		path := s.blobPath(name)
		if isTemp(name) {
			if !fi.ModTime().Before(start.Add(-staleTempAge)) {
				return nil
			}
			st.TempsRemoved++
		} else {
			if referenced[name] || pinned[name] || s.heldSince(name, start) {
				return nil
			}
			// Judged on a fresh stat, not the listing's: a concurrent Put
			// must survive the sweep, and a vanished file (another GC, a
			// quarantine) leaves nothing to remove.
			if now, err := os.Stat(path); err != nil || !now.ModTime().Before(start) {
				return nil
			}
			st.BlobsRemoved++
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		st.BytesReclaimed += fi.Size()
		return nil
	})
	// Releases that predate this snapshot can never matter again (gcMu
	// guarantees no older collection is still sweeping): drop them so
	// heldUntil stays bounded by churn between collections.
	s.mu.Lock()
	for d, until := range s.heldUntil {
		if until.Before(start) {
			delete(s.heldUntil, d)
		}
	}
	s.mu.Unlock()
	return st, err
}

// Verify re-hashes every blob, re-reads the action log and checks every
// action's outputs are present, returning a description of each problem
// found. Corrupt blobs are quarantined (the store degrades to a miss,
// never a wrong artifact); `cache verify -repair` follows up by refetching
// the now-missing referenced blobs from the remote. Unreadable log lines
// are named; the next GC compacts them away.
func (s *Store) Verify() ([]string, error) {
	var problems []string
	err := s.walkBlobs(func(name string, _ fs.FileInfo) error {
		if isTemp(name) {
			return nil
		}
		data, err := os.ReadFile(s.blobPath(name))
		if err != nil {
			problems = append(problems, fmt.Sprintf("blob %s: unreadable: %v", name, err))
			return nil
		}
		if hostutil.HashBytes(data) != name {
			s.quarantine(name)
			problems = append(problems, fmt.Sprintf("blob %s: digest mismatch (quarantined)", name))
		}
		return nil
	})
	if err != nil {
		return problems, err
	}
	torn, err := s.log.check()
	if err != nil {
		return problems, err
	}
	if torn != nil {
		problems = append(problems, fmt.Sprintf("action log %s: %s", s.log.path, torn))
	}
	actions, err := s.Actions()
	if err != nil {
		return problems, err
	}
	for _, a := range actions {
		for _, o := range a.Outputs {
			if !s.Has(o.Digest) {
				problems = append(problems, fmt.Sprintf("action %s (%s): missing blob %s for %s", a.Key[:12], a.Task, o.Digest[:12], o.Name))
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}
