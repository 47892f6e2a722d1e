package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
)

func newStore(t *testing.T) *cas.Store {
	t.Helper()
	s, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serve(t *testing.T, s *cas.Store) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer(s))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, time.Second)
}

func TestBlobRoundTrip(t *testing.T) {
	_, client := serve(t, newStore(t))
	data := []byte("a kernel image crossing the network")
	digest := hostutil.HashBytes(data)

	if _, err := client.GetBlob(context.Background(), digest); !errors.Is(err, cas.ErrNotFound) {
		t.Fatalf("GetBlob before put: %v, want ErrNotFound", err)
	}
	if err := client.PutBlob(context.Background(), digest, data); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetBlob(context.Background(), digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetBlob = %q", got)
	}
}

func TestServerRejectsDigestMismatch(t *testing.T) {
	_, client := serve(t, newStore(t))
	wrong := hostutil.HashBytes([]byte("something else"))
	if err := client.PutBlob(context.Background(), wrong, []byte("not matching")); err == nil {
		t.Fatal("server accepted a blob whose bytes do not match the digest")
	}
}

func TestActionRoundTrip(t *testing.T) {
	store := newStore(t)
	_, client := serve(t, store)
	digest, _ := store.Put([]byte("output"))
	key := hostutil.HashStrings("task key")
	a := &cas.Action{Key: key, Task: "bin:w", Outputs: []cas.Output{{Name: "w-bin", Digest: digest, Mode: 0o644, Size: 6}}}
	if err := client.PutAction(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetAction(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != "bin:w" || len(got.Outputs) != 1 || got.Outputs[0].Digest != digest {
		t.Fatalf("round-trip mangled action: %+v", got)
	}
	if _, err := client.GetAction(context.Background(), hostutil.HashStrings("absent")); !errors.Is(err, cas.ErrNotFound) {
		t.Fatalf("missing action err = %v", err)
	}
}

func TestServerRejectsKeyMismatch(t *testing.T) {
	srv, _ := serve(t, newStore(t))
	a := &cas.Action{Key: hostutil.HashStrings("actual"), Task: "bin:w"}
	req, _ := http.NewRequest(http.MethodPut,
		srv.URL+actionPath(hostutil.HashStrings("different")), bytes.NewReader(mustJSON(t, a)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, a *cas.Action) []byte {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A local miss backed by a remote hit restores the artifact and writes it
// through to the local store.
func TestCacheRemoteHitWriteThrough(t *testing.T) {
	serverStore := newStore(t)
	_, client := serve(t, serverStore)

	// Populate the server side as a previous builder would.
	producer := cas.NewCache(newStore(t), client)
	dir := t.TempDir()
	out := filepath.Join(dir, "w-bin")
	os.WriteFile(out, []byte("shared boot binary"), 0o644)
	key := hostutil.HashStrings("task digest")
	if _, err := producer.Publish(key, "bin:w", []string{out}); err != nil {
		t.Fatal(err)
	}

	// A fresh machine: empty local store, same remote.
	consumerLocal := newStore(t)
	consumer := cas.NewCache(consumerLocal, client)
	a := consumer.Lookup(key)
	if a == nil {
		t.Fatal("remote action lookup missed")
	}
	restored := filepath.Join(t.TempDir(), "w-bin")
	if err := consumer.Restore(a, []string{restored}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(restored)
	if err != nil || string(data) != "shared boot binary" {
		t.Fatalf("restored %q, %v", data, err)
	}
	st := consumer.Stats()
	if st.RemoteHits != 1 || st.RemoteBlobHits != 1 {
		t.Fatalf("stats %+v, want remote action+blob hits", st)
	}
	// Write-through: the blob is now local, a second restore needs no remote.
	if !consumerLocal.Has(a.Outputs[0].Digest) {
		t.Fatal("remote blob not written through to local store")
	}
}

// An unreachable remote degrades to local-only operation: lookups and
// publishes succeed, and after a few failures the breaker stops calling
// the remote at all.
func TestCacheUnreachableRemoteFallsBack(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	c := cas.NewCache(newStore(t), NewClient(deadURL, 200*time.Millisecond))
	dir := t.TempDir()
	out := filepath.Join(dir, "w-bin")
	os.WriteFile(out, []byte("artifact"), 0o644)
	key := hostutil.HashStrings("key")
	if c.Lookup(key) != nil {
		t.Fatal("lookup against dead remote should miss")
	}
	if _, err := c.Publish(key, "bin:w", []string{out}); err != nil {
		t.Fatalf("publish must succeed locally despite dead remote: %v", err)
	}
	if c.Lookup(key) == nil {
		t.Fatal("local lookup after publish missed")
	}
	// Drive the breaker past its threshold.
	for i := 0; i < 5; i++ {
		c.Lookup(hostutil.HashStrings("miss", string(rune('a'+i))))
	}
	st := c.Stats()
	if st.RemoteErrors == 0 {
		t.Fatal("remote errors not counted")
	}
	if !st.RemoteTripped {
		t.Fatal("breaker should have tripped after repeated failures")
	}
}

func TestStatsEndpoint(t *testing.T) {
	store := newStore(t)
	srv, _ := serve(t, store)
	store.Put([]byte("blob"))
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
