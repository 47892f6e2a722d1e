package core

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/cas/remote"
	"firemarshal/internal/hostutil"
)

// cacheEnv is a testEnv whose Marshal uses an explicit (shareable) cache
// directory.
func newCacheEnv(t *testing.T, wlDir, cacheDir string) *testEnv {
	t.Helper()
	if wlDir == "" {
		wlDir = t.TempDir()
	}
	workDir := t.TempDir()
	m, err := New(workDir, wlDir)
	if err != nil {
		t.Fatal(err)
	}
	m.CacheDir = cacheDir
	return &testEnv{m: m, wlDir: wlDir, workDir: workDir}
}

func writeChain(t *testing.T, e *testEnv) {
	t.Helper()
	e.write(t, "p1.json", `{"name":"p1","base":"br-base","command":"echo 1"}`)
	e.write(t, "p2.json", `{"name":"p2","base":"p1","command":"echo 2"}`)
	e.write(t, "p3.json", `{"name":"p3","base":"p2","command":"echo 3"}`)
	e.write(t, "w.json", `{"name":"w","base":"p3","command":"echo leaf"}`)
}

func hashArtifacts(t *testing.T, dir string) map[string]bool {
	t.Helper()
	distinct := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		distinct[hostutil.HashBytes(data)] = true
	}
	return distinct
}

// A fresh checkout (new workdir, no state DB, no artifacts) sharing a warm
// cache rebuilds a ≥3-deep inheritance chain with zero build actions —
// every task is served from the action cache.
func TestBuildRestoresDeepChainFromCache(t *testing.T) {
	cacheDir := t.TempDir()

	cold := newCacheEnv(t, "", cacheDir)
	writeChain(t, cold)
	if _, err := cold.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(cold.m.LastBuildStats.Executed) == 0 {
		t.Fatal("cold build should execute tasks")
	}

	warm := newCacheEnv(t, cold.wlDir, cacheDir)
	results, err := warm.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st := warm.m.LastBuildStats
	if len(st.Executed) != 0 {
		t.Fatalf("warm build executed %v, want zero build actions", st.Executed)
	}
	if len(st.Restored) == 0 {
		t.Fatal("warm build restored nothing")
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("cache stats report no hits: %+v", st.Cache)
	}
	// Restored artifacts are byte-identical to the originals.
	for _, pair := range [][2]string{
		{cold.m.BinPath("w"), results[0].Bin},
		{cold.m.ImgPath("w"), results[0].Img},
	} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if hostutil.HashBytes(a) != hostutil.HashBytes(b) {
			t.Fatalf("restored artifact %s differs from original", pair[1])
		}
	}
}

// Two distinct workloads sharing a base store their common artifacts
// exactly once: the CAS blob count equals the number of distinct artifact
// contents, not the number of artifact files.
func TestSharedBaseArtifactsStoredOnce(t *testing.T) {
	e := newEnv(t)
	e.write(t, "p.json", `{"name":"p","base":"br-base","command":"echo base"}`)
	e.write(t, "c1.json", `{"name":"c1","base":"p","command":"echo one"}`)
	e.write(t, "c2.json", `{"name":"c2","base":"p","command":"echo two"}`)
	if _, err := e.m.Build("c1", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.m.Build("c2", BuildOpts{}); err != nil {
		t.Fatal(err)
	}

	// c1 and c2 change no boot-binary input, so all bins are copies of the
	// base's — one blob among them.
	c1bin, _ := os.ReadFile(e.m.BinPath("c1"))
	c2bin, _ := os.ReadFile(e.m.BinPath("c2"))
	if hostutil.HashBytes(c1bin) != hostutil.HashBytes(c2bin) {
		t.Fatal("siblings should share the parent's boot binary")
	}

	distinct := hashArtifacts(t, filepath.Join(e.workDir, "images"))
	c, err := e.m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.Local().Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.Blobs != len(distinct) {
		t.Fatalf("store holds %d blobs for %d distinct artifact contents — common artifacts not deduplicated", u.Blobs, len(distinct))
	}
	if u.Blobs >= 6 {
		// 4 bins share 1 blob; images differ per baked command.
		t.Fatalf("blob count %d implausibly high (bins not shared?)", u.Blobs)
	}
}

// End-to-end remote round trip: a build on "machine A" publishes through
// the HTTP cache server; "machine B" (empty workdir AND empty local cache)
// rebuilds purely from remote hits.
func TestBuildRemoteCacheRoundTrip(t *testing.T) {
	serverStore := newCacheEnv(t, "", t.TempDir()) // host checkout backing the server
	writeChain(t, serverStore)
	serverCache, err := serverStore.m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewServer(serverCache.Local()))
	defer srv.Close()

	a := newCacheEnv(t, serverStore.wlDir, t.TempDir())
	a.m.RemoteCache = srv.URL
	if _, err := a.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(a.m.LastBuildStats.Executed) == 0 {
		t.Fatal("machine A should have built")
	}

	b := newCacheEnv(t, serverStore.wlDir, t.TempDir())
	b.m.RemoteCache = srv.URL
	if _, err := b.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	st := b.m.LastBuildStats
	if len(st.Executed) != 0 {
		t.Fatalf("machine B executed %v, want pure remote restore", st.Executed)
	}
	if st.Cache.RemoteHits == 0 || st.Cache.RemoteBlobHits == 0 {
		t.Fatalf("no remote hits recorded: %+v", st.Cache)
	}
}

// An unreachable remote cache degrades the build to local-only operation:
// it succeeds, and the failure is visible in the stats.
func TestBuildUnreachableRemoteFallsBack(t *testing.T) {
	e := newEnv(t)
	// A listener that is immediately closed: connection refused, fast.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	e.m.RemoteCache = deadURL
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x"}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatalf("build must succeed with unreachable remote: %v", err)
	}
	if len(results) != 1 || results[0].Bin == "" {
		t.Fatal("missing build results")
	}
	if e.m.LastBuildStats.Cache.RemoteErrors == 0 {
		t.Fatal("remote errors not surfaced in build stats")
	}
	// And the local cache still works: a fresh checkout restores.
	warm := newCacheEnv(t, e.wlDir, e.m.EffectiveCacheDir())
	if _, err := warm.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(warm.m.LastBuildStats.Executed) != 0 {
		t.Fatal("local cache should have served the rebuild")
	}
}

// Clean garbage-collects cache entries unreferenced by any remaining
// workload state and reports reclaimed bytes, while entries still
// referenced by other workloads survive.
func TestCleanPrunesUnreferencedCacheEntries(t *testing.T) {
	e := newEnv(t)
	e.write(t, "p.json", `{"name":"p","base":"br-base","command":"echo base"}`)
	e.write(t, "c1.json", `{"name":"c1","base":"p","command":"echo one"}`)
	e.write(t, "c2.json", `{"name":"c2","base":"p","command":"echo two"}`)
	if _, err := e.m.Build("c1", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.m.Build("c2", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	c, _ := e.m.Cache()
	before, _ := c.Local().Usage()

	gc, err := e.m.Clean("c1")
	if err != nil {
		t.Fatal(err)
	}
	if gc.BytesReclaimed == 0 || gc.ActionsRemoved == 0 {
		t.Fatalf("clean reclaimed nothing: %+v", gc)
	}
	after, _ := c.Local().Usage()
	if after.Blobs >= before.Blobs {
		t.Fatalf("blob count %d -> %d, want a decrease", before.Blobs, after.Blobs)
	}

	// c2 (and the shared base) must still be served from the cache: wipe
	// its artifacts and state, rebuild from cache alone.
	warm := newCacheEnv(t, e.wlDir, e.m.EffectiveCacheDir())
	if _, err := warm.m.Build("c2", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(warm.m.LastBuildStats.Executed) != 0 {
		t.Fatalf("c2 rebuild executed %v after cleaning c1", warm.m.LastBuildStats.Executed)
	}

	// Cleaning c2 as well prunes its entries too; what survives is the
	// shared parent chain (p, br-base), which Clean of a child never drops.
	if _, err := e.m.Clean("c2"); err != nil {
		t.Fatal(err)
	}
	final, _ := c.Local().Usage()
	if final.Actions >= after.Actions {
		t.Fatalf("actions %d -> %d after cleaning c2, want a decrease", after.Actions, final.Actions)
	}
}

// TestCacheDirInodeCensus is the count store layout v3 rests on, immune to
// host timing: after building and launching a six-job workload, the cache
// directory holds one entry per distinct artifact, the blobs/ directory
// and the action log — nothing per task and no shard directories (the
// sharded layout held one file per task besides, and up to one directory
// per entry) — and a no-op rebuild adds nothing.
func TestCacheDirInodeCensus(t *testing.T) {
	cacheDir := t.TempDir()
	e := newCacheEnv(t, "", cacheDir)
	e.write(t, "six.json", `{
  "name": "six", "base": "br-base",
  "jobs": [{"name": "j0", "command": "echo 0"}, {"name": "j1", "command": "echo 1"},
           {"name": "j2", "command": "echo 2"}, {"name": "j3", "command": "echo 3"},
           {"name": "j4", "command": "echo 4"}, {"name": "j5", "command": "echo 5"}]}`)
	runs, err := e.m.Launch("six", LaunchOpts{})
	if err != nil || len(runs) != 6 {
		t.Fatalf("launch: %d runs, %v", len(runs), err)
	}
	census := func() int {
		n := -1 // the cache directory itself
		err := filepath.WalkDir(cacheDir, func(string, os.DirEntry, error) error { n++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cache, err := e.m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	u, err := cache.Local().Usage()
	if err != nil {
		t.Fatal(err)
	}
	if u.Actions < 12 || u.Blobs == 0 {
		t.Fatalf("usage %+v: six jobs publish at least a binary and an image task each", u)
	}
	after := census()
	if want := u.Blobs + 2; after != want {
		t.Fatalf("%d entries under the cache directory, want %d: %d blobs, blobs/ and the action log (%d actions)",
			after, want, u.Blobs, u.Actions)
	}
	t.Logf("%d entries for %d actions and %d distinct blobs", after, u.Actions, u.Blobs)

	if _, err := e.m.Build("six", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if ex := e.m.LastBuildStats.Executed; len(ex) != 0 {
		t.Fatalf("the rebuild executed %v", ex)
	}
	if again := census(); again != after {
		t.Fatalf("a no-op rebuild took the cache directory from %d entries to %d", after, again)
	}
}

// imagesAndBlobs checks every artifact under a checkout's images/: it is a
// blob's own inode when linked is set and its own file otherwise, holds the
// blob's bytes either way, and has no write bits.
func imagesAndBlobs(t *testing.T, e *testEnv, cacheDir string, linked bool) map[string][]byte {
	t.Helper()
	dir := filepath.Join(e.workDir, "images")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		p := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
		fi, _ := os.Stat(p)
		blob, err := os.Stat(cas.BlobPath(cacheDir, hostutil.HashBytes(data)))
		if err != nil {
			t.Errorf("%s: no blob holds its bytes: %v", ent.Name(), err)
			continue
		}
		if os.SameFile(fi, blob) != linked || fi.Mode().Perm()&0o222 != 0 {
			t.Errorf("%s: a link to its blob = %v, want %v; mode %v, want no write bits", ent.Name(), os.SameFile(fi, blob), linked, fi.Mode().Perm())
		}
	}
	return out
}

// Artifacts are stored once: a cold build's artifacts and a fresh checkout's
// restored ones are read-only hard links to their cache blobs. With the cache
// on another file system, where no link can be made, the same builds leave
// read-only copies with identical bytes.
func TestArtifactsAreLinksToTheirBlobs(t *testing.T) {
	cacheDir := t.TempDir()
	a := newCacheEnv(t, "", cacheDir)
	writeChain(t, a)
	if _, err := a.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	built := imagesAndBlobs(t, a, cacheDir, true)
	b := newCacheEnv(t, a.wlDir, cacheDir)
	if _, err := b.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if n := len(b.m.LastBuildStats.Restored); n == 0 || len(b.m.LastBuildStats.Executed) != 0 {
		t.Fatalf("fresh checkout restored %d and executed %v, want every task restored", n, b.m.LastBuildStats.Executed)
	}
	if restored := imagesAndBlobs(t, b, cacheDir, true); !reflect.DeepEqual(restored, built) {
		t.Error("restored artifacts differ from the built ones")
	}

	other, err := os.MkdirTemp("/dev/shm", "core-cache-")
	if err != nil {
		t.Skip("no second file system at /dev/shm")
	}
	t.Cleanup(func() { os.RemoveAll(other) })
	probe := filepath.Join(a.workDir, "probe")
	os.WriteFile(probe, nil, 0o644)
	if err := os.Link(probe, filepath.Join(other, "probe")); !errors.Is(err, syscall.EXDEV) {
		t.Skipf("/dev/shm is not another file system here (link: %v)", err)
	}
	os.Remove(filepath.Join(other, "probe"))
	for i, what := range []string{"cold build", "restore"} {
		c := newCacheEnv(t, a.wlDir, other)
		if _, err := c.m.Build("w", BuildOpts{}); err != nil {
			t.Fatal(err)
		}
		if ran := len(c.m.LastBuildStats.Executed); (i == 0) != (ran > 0) {
			t.Fatalf("%s across file systems executed %d tasks", what, ran)
		}
		if copies := imagesAndBlobs(t, c, other, false); !reflect.DeepEqual(copies, built) {
			t.Errorf("%s across file systems: artifacts differ from the linked ones", what)
		}
	}
}

// An artifact a user rewrites in place, giving it back its write bits first,
// rewrites the cache blob it is linked to. The next checkout to restore that
// blob detects it, quarantines it and rebuilds the task: it never gets the
// edited bytes, and the cache verifies clean afterwards.
func TestArtifactRewrittenInPlaceIsNeverRestored(t *testing.T) {
	cacheDir := t.TempDir()
	a := newCacheEnv(t, "", cacheDir)
	writeChain(t, a)
	if _, err := a.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	img := a.m.ImgPath("w")
	want, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(img, 0o644); err != nil {
		t.Fatal(err)
	}
	edited := bytes.ToUpper(want)
	if err := os.WriteFile(img, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	b := newCacheEnv(t, a.wlDir, cacheDir)
	if _, err := b.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if ex := b.m.LastBuildStats.Executed; !reflect.DeepEqual(ex, []string{"img:w"}) {
		t.Errorf("fresh checkout executed %v, want img:w alone rebuilt", ex)
	}
	if got, _ := os.ReadFile(b.m.ImgPath("w")); !bytes.Equal(got, want) {
		t.Error("the restored checkout's image is not the one the build makes")
	}
	cache, _ := b.m.Cache()
	if q := cache.Local().Quarantined(); q != 1 {
		t.Errorf("%d blobs quarantined, want the rewritten one", q)
	}
	if problems, err := b.m.CacheVerify(); err != nil || len(problems) != 0 {
		t.Errorf("cache verify after the rebuild: %v, %v", problems, err)
	}
}
