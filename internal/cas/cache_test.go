package cas

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// fakeRemote is an in-memory cas.Remote with switchable failure modes.
type fakeRemote struct {
	mu      sync.Mutex
	blobs   map[string][]byte
	actions map[string]*Action
	err     error // returned from every call while set
	calls   int
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{blobs: map[string][]byte{}, actions: map[string]*Action{}}
}

func (f *fakeRemote) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *fakeRemote) enter() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.err
}

func (f *fakeRemote) GetBlob(_ context.Context, digest string) ([]byte, error) {
	if err := f.enter(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.blobs[digest]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

func (f *fakeRemote) PutBlob(_ context.Context, digest string, data []byte) error {
	if err := f.enter(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blobs[digest] = append([]byte(nil), data...)
	return nil
}

func (f *fakeRemote) GetAction(_ context.Context, key string) (*Action, error) {
	if err := f.enter(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.actions[key]
	if !ok {
		return nil, ErrNotFound
	}
	return a, nil
}

func (f *fakeRemote) PutAction(_ context.Context, a *Action) error {
	if err := f.enter(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.actions[a.Key] = a
	return nil
}

// TestBreakerHalfOpenRecovery drives the full breaker state machine on a
// fake clock: consecutive failures trip it open, the cooldown admits one
// half-open probe, a failed probe doubles the cooldown, and a successful
// probe closes the breaker — the remote is never permanently written off.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rem := newFakeRemote()
	rem.err = os.ErrDeadlineExceeded // any non-NotFound error is a health failure
	c := NewCache(store, rem)
	reg := obs.NewRegistry()
	c.SetObs(reg)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	key := hostutil.HashBytes([]byte("missing-action"))

	for i := 0; i < remoteTripThreshold; i++ {
		c.Lookup(key)
	}
	if st := c.BreakerState(); st != breakerOpen {
		t.Fatalf("after %d failures state = %d, want open(%d)", remoteTripThreshold, st, breakerOpen)
	}
	if g := reg.Gauge("cas_remote_breaker_state").Value(); g != breakerOpen {
		t.Errorf("cas_remote_breaker_state = %g, want %d", g, breakerOpen)
	}

	// Open: calls are refused without touching the remote.
	before := rem.Calls()
	c.Lookup(key)
	if rem.Calls() != before {
		t.Fatal("open breaker let a call through before the cooldown")
	}

	// Cooldown elapsed: exactly one half-open probe goes through; it
	// fails, so the breaker reopens with the cooldown doubled.
	now = now.Add(defaultBreakerCooldown)
	c.Lookup(key)
	if rem.Calls() != before+1 {
		t.Fatalf("half-open probe count = %d, want %d", rem.Calls()-before, 1)
	}
	if st := c.BreakerState(); st != breakerOpen {
		t.Fatalf("after failed probe state = %d, want open", st)
	}

	// The doubled cooldown holds: the base cooldown is no longer enough.
	now = now.Add(defaultBreakerCooldown)
	before = rem.Calls()
	c.Lookup(key)
	if rem.Calls() != before {
		t.Fatal("reopened breaker ignored the doubled cooldown")
	}

	// Another base cooldown later the probe runs again; the remote is
	// back (a NotFound answer is healthy), so the breaker closes.
	rem.err = nil
	now = now.Add(defaultBreakerCooldown)
	c.Lookup(key)
	if st := c.BreakerState(); st != breakerClosed {
		t.Fatalf("after successful probe state = %d, want closed", st)
	}
	if g := reg.Gauge("cas_remote_breaker_state").Value(); g != breakerClosed {
		t.Errorf("cas_remote_breaker_state = %g, want %d", g, breakerClosed)
	}
	// Closed again: traffic flows on every call.
	before = rem.Calls()
	c.Lookup(key)
	c.Lookup(key)
	if rem.Calls() != before+2 {
		t.Errorf("closed breaker passed %d of 2 calls", rem.Calls()-before)
	}
}

// TestBreakerHalfOpenSingleProbe: while one probe is in flight, every
// other caller is refused — half-open risks exactly one request.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rem := newFakeRemote()
	rem.err = os.ErrDeadlineExceeded
	c := NewCache(store, rem)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	key := hostutil.HashBytes([]byte("x"))
	for i := 0; i < remoteTripThreshold; i++ {
		c.Lookup(key)
	}
	now = now.Add(defaultBreakerCooldown)
	if !c.remoteUsable() {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if c.remoteUsable() {
		t.Fatal("second concurrent caller admitted during half-open probe")
	}
	c.noteRemote(nil) // probe succeeds
	if st := c.BreakerState(); st != breakerClosed {
		t.Fatalf("state = %d after successful probe, want closed", st)
	}
}

// TestBreakerRateLimitHold: a 429 past the client's retry budget holds
// remote traffic for exactly the server's Retry-After — without counting
// as a failure or moving the breaker.
func TestBreakerRateLimitHold(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rem := newFakeRemote()
	rem.err = &RateLimitedError{RetryAfter: 30 * time.Second}
	c := NewCache(store, rem)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	key := hostutil.HashBytes([]byte("y"))

	c.Lookup(key)
	if st := c.BreakerState(); st != breakerClosed {
		t.Fatalf("rate limit moved the breaker to %d; it is not a health failure", st)
	}
	if got := c.Stats().RemoteRateLimited; got != 1 {
		t.Errorf("RemoteRateLimited = %d, want 1", got)
	}
	// Held: no remote traffic until the hint expires.
	before := rem.Calls()
	c.Lookup(key)
	if rem.Calls() != before {
		t.Fatal("hold ignored: call went to a remote that asked us to back off")
	}
	rem.err = nil
	now = now.Add(31 * time.Second)
	c.Lookup(key)
	if rem.Calls() != before+1 {
		t.Fatal("hold never expired")
	}
	if c.Stats().RemoteErrors != 0 {
		t.Errorf("RemoteErrors = %d after pure rate limiting, want 0", c.Stats().RemoteErrors)
	}
}

// TestConcurrentCorruptBlobSelfHeal: many readers hit one corrupt local
// blob at once. Every reader must come back with the correct verified
// bytes (served from the remote), and the local blob must end up healed
// on disk. Run under -race in the chaos gate.
func TestConcurrentCorruptBlobSelfHeal(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("the artifact every reader must see")
	digest, err := store.Put(want)
	if err != nil {
		t.Fatal(err)
	}
	// Rot the blob; the digest no longer matches.
	if err := hostutil.WriteFileAtomic(store.blobPath(digest), []byte("bit-rotted garbage"), 0o444); err != nil {
		t.Fatal(err)
	}
	rem := newFakeRemote()
	rem.blobs[digest] = want
	c := NewCache(store, rem)
	c.SetObs(obs.NewRegistry())

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _, err := c.blob(digest, true)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(data, want) {
				errs <- os.ErrInvalid
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent reader: %v", err)
	}

	// The corrupt bytes were quarantined and the blob healed on disk:
	// a fresh read succeeds locally without touching the remote.
	before := rem.Calls()
	if data, err := store.Get(digest); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("local blob after heal: %q, %v", data, err)
	}
	if rem.Calls() != before {
		t.Error("post-heal read still needed the remote")
	}
	if healed := c.Stats().BlobsHealed; healed == 0 {
		t.Error("BlobsHealed = 0; the corrupt read never counted as a heal")
	}
	if store.Quarantined() == 0 {
		t.Error("corrupt blob was never quarantined")
	}
}

// scriptedTamper flips a bit in each of the next flips kept reads and tears
// each of the next tears writes in half, then passes bytes through.
type scriptedTamper struct {
	flips, tears int
}

func (s *scriptedTamper) ReadBlob(_ string, data []byte) []byte {
	if s.flips == 0 || len(data) == 0 {
		return data
	}
	s.flips--
	out := append([]byte(nil), data...)
	out[0] ^= 1
	return out
}

func (s *scriptedTamper) WriteBlob(_ string, data []byte) ([]byte, error) {
	if s.tears == 0 || len(data) < 2 {
		return data, nil
	}
	s.tears--
	return data[:len(data)/2], nil
}

// TestTamperedStoreHeals: the faults a chaos hook injects into a worker's
// store are healed through the cache like real ones. A flipped read is
// quarantined and refetched; a torn write-back is never handed out as a
// blob to link, and the next read quarantines and heals it.
func TestTamperedStoreHeals(t *testing.T) {
	want := []byte("the artifact a worker boots from")
	digest := hostutil.HashBytes(want)
	setup := func(local bool) (*Store, *scriptedTamper, *Cache) {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if local {
			if _, err := store.Put(want); err != nil {
				t.Fatal(err)
			}
		}
		tamper := &scriptedTamper{}
		store.SetTamper(tamper)
		rem := newFakeRemote()
		rem.blobs[digest] = want
		c := NewCache(store, rem)
		c.SetObs(obs.NewRegistry())
		return store, tamper, c
	}
	healed := func(t *testing.T, store *Store, c *Cache) {
		t.Helper()
		if data, err := c.Blob(digest); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("Blob = %q, %v", data, err)
		}
		if store.Quarantined() != 1 || c.Stats().BlobsHealed != 1 {
			t.Errorf("quarantined %d, healed %d; want 1 and 1", store.Quarantined(), c.Stats().BlobsHealed)
		}
		if data, err := store.Get(digest); err != nil || !bytes.Equal(data, want) {
			t.Errorf("local blob after heal: %q, %v", data, err)
		}
	}

	t.Run("flipped read", func(t *testing.T) {
		store, tamper, c := setup(true)
		tamper.flips = 1
		healed(t, store, c)
	})
	t.Run("torn write-back", func(t *testing.T) {
		store, tamper, c := setup(false)
		tamper.tears = 1
		data, fi, err := c.blob(digest, false)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("remote fallback = %q, %v", data, err)
		}
		if fi != nil {
			t.Error("a blob written under a tamper hook was handed out to link")
		}
		healed(t, store, c)
	})
}
