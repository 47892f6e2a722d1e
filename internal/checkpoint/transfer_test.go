package checkpoint

import (
	"context"
	"errors"
	"sync"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/sim"
)

// progPages maps eight data pages, then spends ~9k instructions dirtying
// only the first: snapshots after the first share all but one page.
const progPages = `
_start:
    li s2, 0x100000
    li s0, 8
fill:
    sd s0, 0(s2)
    li t0, 4096
    add s2, s2, t0
    addi s0, s0, -1
    bnez s0, fill
    li s2, 0x100000
    li s0, 1500
    li s1, 0
spin:
    sd s1, 0(s2)
    ld t3, 0(s2)
    add s1, s1, t3
    addi s1, s1, 3
    addi s0, s0, -1
    bnez s0, spin
    mv a0, s1
    li a7, 0x101
    ecall
    li a0, 7
    li a7, 93
    ecall
`

// flakyRemote is an in-memory cas.Remote — the four methods, nothing else —
// that drops the first PUT and the first GET of every digest.
type flakyRemote struct {
	mu      sync.Mutex
	blobs   map[string][]byte
	dropped map[string]bool
	puts    []string // digests stored, in order
}

func (f *flakyRemote) drop(op, digest string) bool {
	if f.dropped[op+digest] {
		return false
	}
	f.dropped[op+digest] = true
	return true
}

func (f *flakyRemote) GetBlob(_ context.Context, digest string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.drop("get", digest) {
		return nil, errors.New("connection reset")
	}
	data, ok := f.blobs[digest]
	if !ok {
		return nil, cas.ErrNotFound
	}
	return data, nil
}

func (f *flakyRemote) PutBlob(_ context.Context, digest string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.drop("put", digest) {
		return errors.New("connection reset")
	}
	f.blobs[digest] = append([]byte(nil), data...)
	f.puts = append(f.puts, digest)
	return nil
}

func (f *flakyRemote) GetAction(context.Context, string) (*cas.Action, error) {
	return nil, cas.ErrNotFound
}
func (f *flakyRemote) PutAction(context.Context, *cas.Action) error { return nil }

// TestPushSendsOnlyNewBlobsAndFetchRestores is the fleet handoff in
// miniature, over a remote that drops the first request of every digest: a
// worker pushes each snapshot as it is taken and is killed; every snapshot
// uploads exactly one blob, its pack — which after the first holds only
// what the guest dirtied since — no digest goes up twice, and a worker with
// an empty store fetches the last pointer and finishes the job
// bit-identically to an uninterrupted run.
func TestPushSendsOnlyNewBlobsAndFetchRestores(t *testing.T) {
	ctx := context.Background()
	refStore, refDir := openStore(t)
	refRT, err := Open(Config{Store: refStore, Dir: refDir, Job: "job", Every: 1000}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := (&miniPlatform{t: t, rt: refRT}).exec(progPages, 0)

	rem := &flakyRemote{blobs: map[string][]byte{}, dropped: map[string]bool{}}
	storeA, dirA := openStore(t)
	sent := map[string]bool{}
	var last Pointer
	snapshots := 0
	rtA, err := Open(Config{Store: storeA, Dir: dirA, Job: "job", Every: 1000,
		OnSnapshot: func(ptr Pointer, cp *Checkpoint) error {
			before := len(rem.puts)
			if err := Push(ctx, storeA, rem, cp, sent); err != nil {
				return err
			}
			if puts := rem.puts[before:]; len(puts) != 1 || puts[0] != ptr.Digest {
				t.Errorf("snapshot %d uploaded %d blobs, want its pack alone", snapshots, len(puts))
			}
			if len(cp.Pages) < 8 {
				t.Errorf("snapshot %d maps %d pages; the bound below means nothing under 8", snapshots, len(cp.Pages))
			}
			if n := len(rem.blobs[ptr.Digest]); snapshots > 0 && n > 3*sim.PageSize {
				t.Errorf("snapshot %d uploaded %d bytes; the guest dirtied one data page", snapshots, n)
			}
			last = ptr
			snapshots++
			return nil
		}}, false)
	if err != nil {
		t.Fatal(err)
	}
	(&miniPlatform{t: t, rt: rtA}).exec(progPages, 5) // killed after the fifth snapshot
	if snapshots != 5 {
		t.Fatalf("%d snapshots pushed, want 5", snapshots)
	}
	seen := map[string]bool{}
	for _, d := range rem.puts {
		if seen[d] {
			t.Errorf("digest %s uploaded twice in one attempt", d[:12])
		}
		seen[d] = true
	}

	storeB, dirB := openStore(t)
	cp, err := Fetch(ctx, storeB, rem, &last)
	if err != nil {
		t.Fatalf("fresh worker could not fetch the checkpoint: %v", err)
	}
	if refs := cp.Refs(); len(refs) < 2 || len(refs) > snapshots {
		t.Errorf("fetched checkpoint references %d blobs, want the packs of the 5 snapshots that still hold a page", len(refs))
	}
	if err := WritePointer(dirB, &last); err != nil {
		t.Fatal(err)
	}
	rtB, err := Open(Config{Store: storeB, Dir: dirB, Job: "job", Every: 1000}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rtB.Resuming() {
		t.Fatalf("fresh worker found no checkpoint to resume: %v", rtB.Discarded())
	}
	if got := (&miniPlatform{t: t, rt: rtB}).exec(progPages, 0); *got != *want {
		t.Errorf("resumed on a fresh worker: %+v, want %+v", *got, *want)
	}
}
