package remote

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"firemarshal/internal/cas"
)

// TestClient429RetryThenSuccess: a throttled hub's 429s are absorbed by
// the client — it waits out Retry-After (plus jitter) and retries, and
// the caller only sees the eventual success.
func TestClient429RetryThenSuccess(t *testing.T) {
	store := newStore(t)
	want := []byte("blob behind a throttled hub")
	digest, err := store.Put(want)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(store)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, time.Second)
	var slept []time.Duration
	c.http.Sleep = func(d time.Duration) { slept = append(slept, d) }
	got, err := c.GetBlob(context.Background(), digest)
	if err != nil {
		t.Fatalf("GetBlob through throttling: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("GetBlob = %q, want %q", got, want)
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2 (once per 429)", len(slept))
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("backoff %d = %v, want >= the 1s Retry-After hint", i, d)
		}
	}
}

// TestClient429Exhausted: past the retry budget the client surfaces
// cas.RateLimitedError carrying the server's hint — the signal the
// Cache turns into a hold instead of a breaker trip.
func TestClient429Exhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, time.Second)
	c.http.Sleep = func(time.Duration) {}
	_, err := c.GetBlob(context.Background(), "deadbeef")
	var rl *cas.RateLimitedError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %v, want cas.RateLimitedError", err)
	}
	if rl.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", rl.RetryAfter)
	}
}
