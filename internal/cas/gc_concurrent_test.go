package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/hostutil"
)

// TestGCSweepSparesConcurrentWrites pins the GC snapshot invariant
// deterministically: the sweep hook (which runs between mark and sweep)
// plays a client racing the collection — it writes a fresh blob and a
// fresh action. Both postdate the snapshot, so the sweep must spare them,
// while a genuinely stale blob written before the GC started is removed.
func TestGCSweepSparesConcurrentWrites(t *testing.T) {
	s := openTestStore(t)
	staleDigest, err := s.Put([]byte("stale, unreferenced"))
	if err != nil {
		t.Fatal(err)
	}
	// The mtime-after-snapshot guard compares against the GC entry time;
	// make sure the stale blob is strictly older even on coarse clocks.
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(s.blobPath(staleDigest), old, old); err != nil {
		t.Fatal(err)
	}

	var racedBlob string
	racedAction := &Action{Key: hostutil.HashBytes([]byte("raced-task")), Task: "raced"}
	s.gcSweepHook = func() {
		var err error
		if racedBlob, err = s.Put([]byte("landed mid-sweep")); err != nil {
			t.Error(err)
		}
		racedAction.Outputs = []Output{{Name: "out", Digest: racedBlob}}
		if err := s.PutAction(racedAction); err != nil {
			t.Error(err)
		}
	}

	stats, err := s.GC(map[string]bool{}, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Has(staleDigest) {
		t.Fatal("stale unreferenced blob survived GC")
	}
	if stats.BlobsRemoved != 1 {
		t.Fatalf("BlobsRemoved = %d, want 1", stats.BlobsRemoved)
	}
	if !s.Has(racedBlob) {
		t.Fatal("blob put during the sweep was collected")
	}
	if _, err := s.GetAction(racedAction.Key); err != nil {
		t.Fatalf("action written during the sweep was collected: %v", err)
	}
}

// TestGCHoldProtectsPublishWindow covers the in-process guard: a publish
// holds its blob between the blob write and the action write; a sweep in
// that window (even one whose snapshot predates the blob) must not reap
// it. The blob's mtime is backdated so only the hold can save it.
func TestGCHoldProtectsPublishWindow(t *testing.T) {
	s := openTestStore(t)
	digest, err := s.Put([]byte("output bytes"))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(s.blobPath(digest), old, old); err != nil {
		t.Fatal(err)
	}
	release := s.Hold(digest)
	if _, err := s.GC(map[string]bool{}, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	if !s.Has(digest) {
		t.Fatal("held blob was collected mid-publish")
	}
	release()
	if err := os.Chtimes(s.blobPath(digest), old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(map[string]bool{}, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	if s.Has(digest) {
		t.Fatal("released unreferenced blob survived the next GC")
	}
}

// TestGCUnderConcurrentTraffic races real writers against a looping
// collector under -race: publishers follow the Hold pattern (blob, then
// the referencing action, hold released after both), and at the end every
// published blob and action must exist — the sweep may only ever have
// delayed reclamation, never eaten a live entry.
func TestGCUnderConcurrentTraffic(t *testing.T) {
	s := openTestStore(t)
	const writers = 4
	const perWriter = 25

	// The collector's view of reachable build state: every key the writers
	// will publish is live (keys are deterministic). The interesting part
	// is the RACE — an action in the live set may not exist yet when a
	// mark phase runs, so its blob is unreferenced to that snapshot and
	// only the mtime/hold guards stand between it and the sweep.
	live := map[string]bool{}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			live[hostutil.HashBytes([]byte(fmt.Sprintf("task %d/%d", w, i)))] = true
		}
	}

	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(live, map[string]bool{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	type published struct {
		key    string
		digest string
	}
	results := make([][]published, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				data := []byte(fmt.Sprintf("writer %d artifact %d", w, i))
				digest := hostutil.HashBytes(data)
				release := s.Hold(digest)
				if _, err := s.Put(data); err != nil {
					t.Error(err)
					release()
					return
				}
				a := &Action{
					Key:     hostutil.HashBytes([]byte(fmt.Sprintf("task %d/%d", w, i))),
					Task:    "stress",
					Outputs: []Output{{Name: "out", Digest: digest, Size: int64(len(data))}},
				}
				if err := s.PutAction(a); err != nil {
					t.Error(err)
					release()
					return
				}
				release()
				results[w] = append(results[w], published{key: a.Key, digest: digest})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	gcWG.Wait()

	for w, pubs := range results {
		for i, p := range pubs {
			if _, err := s.GetAction(p.key); err != nil {
				t.Errorf("writer %d action %d lost: %v", w, i, err)
			}
			if !s.Has(p.digest) {
				t.Errorf("writer %d blob %d lost", w, i)
			}
		}
	}
}

// TestPutStreamReadFailureClassified pins the error taxonomy the server's
// status mapping depends on: a reader that dies mid-stream yields ErrRead
// (client's fault), digest-mismatched bytes yield ErrCorrupt, and neither
// leaves a temp file behind.
func TestPutStreamReadFailureClassified(t *testing.T) {
	s := openTestStore(t)
	digest := hostutil.HashBytes([]byte("expected content"))

	_, err := s.PutStream(digest, &failAfterReader{data: []byte("expec")})
	if err == nil || !strings.Contains(err.Error(), "read failed") {
		t.Fatalf("torn-reader PutStream: %v, want ErrRead", err)
	}
	if !errors.Is(err, ErrRead) {
		t.Fatalf("torn-reader PutStream error %v does not wrap ErrRead", err)
	}

	_, err = s.PutStream(digest, bytes.NewReader([]byte("the wrong bytes")))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched PutStream: %v, want ErrCorrupt", err)
	}
	if s.Has(digest) {
		t.Fatal("failed streams left a blob behind")
	}
	entries, err := os.ReadDir(filepath.Dir(s.blobPath(digest)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if isTemp(e.Name()) {
			t.Fatalf("failed stream left temp file %s", e.Name())
		}
	}
}

type failAfterReader struct {
	data []byte
	off  int
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.off < len(r.data) {
		n := copy(p, r.data[r.off:])
		r.off += n
		return n, nil
	}
	return 0, fmt.Errorf("mid-stream disconnect")
}
