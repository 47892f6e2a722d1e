package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
)

// deterministic payload generator: same bytes on every run, cheap to make
// larger than any chunk size a test picks.
func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>8*17)
	}
	return data
}

// --- satellite 1: the 429 wait must abort on context cancellation ---

// TestRetryAfterWaitAbortsOnCancel regresses the bug where Client.do slept
// out the full Retry-After hint and only then noticed the context was
// cancelled. The server answers 429 with a 30-second hint; the context is
// cancelled shortly after the first attempt, and the call must return in
// far less than the hint.
func TestRetryAfterWaitAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, time.Second) // real timer path: c.sleep is nil

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	begin := time.Now()
	_, err := client.GetBlob(ctx, hostutil.HashBytes([]byte("x")))
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("GetBlob with cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetBlob error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the wait slept through the Retry-After hint", elapsed)
	}
}

// TestWaitHonorsPreCancelledContext covers the injected-sleep path tests
// use: even with a fake sleep the wait must report a context already
// cancelled instead of looping into the next attempt.
func TestWaitHonorsPreCancelledContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, time.Second)
	attempts := 0
	client.sleep = func(time.Duration) { attempts++ }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.GetBlob(ctx, hostutil.HashBytes([]byte("x")))
	if err == nil {
		t.Fatal("GetBlob with pre-cancelled context succeeded")
	}
	if attempts > 1 {
		t.Fatalf("client kept retrying (%d sleeps) against a cancelled context", attempts)
	}
}

// --- satellite 2: HasBlob must not report a failing server as "absent" ---

func TestHasBlobSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, time.Second)

	ok, err := client.HasBlob(context.Background(), hostutil.HashBytes([]byte("x")))
	if err == nil {
		t.Fatalf("HasBlob against a 500-server = (%v, nil), want an error: a 5xx is not \"absent\"", ok)
	}
	if ok {
		t.Fatal("HasBlob reported present on a 500")
	}
}

// --- satellite 3: PUT status codes must match the failure ---

// failingBody errors mid-read, like a client that died mid-upload.
type failingBody struct{ n int }

func (b *failingBody) Read(p []byte) (int, error) {
	if b.n > 0 {
		b.n--
		p[0] = 'x'
		return 1, nil
	}
	return 0, errors.New("connection torn")
}

func TestPutBodyReadErrorIs400Not413(t *testing.T) {
	s := NewServer(newStore(t))
	digest := hostutil.HashBytes([]byte("never arrives"))

	req := httptest.NewRequest(http.MethodPut, "/v1/blobs/"+digest, &failingBody{n: 3})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT blob with torn body = %d, want 400 (got body %q)", w.Code, w.Body.String())
	}

	req = httptest.NewRequest(http.MethodPut, "/v1/actions/"+digest, &failingBody{n: 3})
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT action with torn body = %d, want 400 (got body %q)", w.Code, w.Body.String())
	}
}

func TestPutOversizeBodyIs413(t *testing.T) {
	s := NewServer(newStore(t))
	s.SetMaxBytes(16)
	data := payload(100)
	digest := hostutil.HashBytes(data)

	req := httptest.NewRequest(http.MethodPut, "/v1/blobs/"+digest, bytes.NewReader(data))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT blob = %d, want 413 (got body %q)", w.Code, w.Body.String())
	}

	req = httptest.NewRequest(http.MethodPut, "/v1/actions/"+digest, bytes.NewReader(data))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT action = %d, want 413 (got body %q)", w.Code, w.Body.String())
	}
}

// --- protocol v2: ETag revalidation ---

func TestGetBlobETagRevalidation(t *testing.T) {
	store := newStore(t)
	srv, _ := serve(t, store)
	data := []byte("a disk image")
	digest, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("GET = %d %q", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+digest+`"` {
		t.Fatalf("ETag = %q, want quoted digest", etag)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(data)) {
		t.Fatalf("Content-Length = %q, want %d", cl, len(data))
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/blobs/"+digest, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation GET = %d, want 304", resp.StatusCode)
	}
}

// --- protocol v2: streaming round trip and tail verification ---

func TestStreamingRoundTrip(t *testing.T) {
	store := newStore(t)
	_, client := serve(t, store)
	client.SetChunkSize(1 << 10)
	data := payload(10<<10 + 37) // 11 chunks, last one ragged
	digest := hostutil.HashBytes(data)

	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBlobFile(context.Background(), digest, path); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked upload assembled different bytes")
	}

	rc, size, err := client.GetBlobStream(context.Background(), digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != int64(len(data)) {
		t.Fatalf("GetBlobStream size = %d, want %d", size, len(data))
	}
	streamed, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, data) {
		t.Fatal("GetBlobStream returned different bytes")
	}
}

func TestGetBlobStreamDetectsCorruption(t *testing.T) {
	store := newStore(t)
	_, client := serve(t, store)
	data := payload(4 << 10)
	digest, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte on disk, same length: the server streams it blindly (no
	// server-side verify on the fast path) and the client's tail check
	// must refuse it.
	path := filepath.Join(store.Dir(), "blobs", digest[:2], digest)
	data[100] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rc, _, err := client.GetBlobStream(context.Background(), digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("reading corrupted stream: %v, want ErrCorrupt", err)
	}
}

// --- protocol v2: resumable uploads survive a torn connection ---

// chunkKiller fails exactly one Content-Range PUT (the killAt'th, counted
// from zero) with a transport error, simulating a connection dropped
// mid-upload. It records the offsets of chunk requests that reached the
// wire so the test can prove the client resumed instead of restarting.
type chunkKiller struct {
	mu      sync.Mutex
	killAt  int
	seen    int
	offsets []int64
}

func (k *chunkKiller) RoundTrip(req *http.Request) (*http.Response, error) {
	cr := req.Header.Get("Content-Range")
	if req.Method == http.MethodPut && cr != "" {
		var start, end, total int64
		fmt.Sscanf(cr, "bytes %d-%d/%d", &start, &end, &total)
		k.mu.Lock()
		idx := k.seen
		k.seen++
		k.offsets = append(k.offsets, start)
		k.mu.Unlock()
		if idx == k.killAt {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, errors.New("connection reset mid-chunk")
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestUploadResumesAfterTornConnection(t *testing.T) {
	store := newStore(t)
	srv, client := serve(t, store)
	_ = srv
	const chunk = 1 << 10
	client.SetChunkSize(chunk)
	killer := &chunkKiller{killAt: 2} // chunks 0 and 1 acked, chunk 2 dies
	client.SetTransport(killer)
	data := payload(5*chunk + 123)
	digest := hostutil.HashBytes(data)

	path := filepath.Join(t.TempDir(), "checkpoint.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBlobFile(context.Background(), digest, path); err != nil {
		t.Fatalf("PutBlobFile did not ride out the torn chunk: %v", err)
	}

	// Bit-identical on the far side (the server re-hashed before admitting).
	got, err := store.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resumed upload assembled different bytes")
	}

	// The retry must have resumed from the last acked offset (2*chunk),
	// not offset 0: after the killed chunk at 2*chunk, the next chunk
	// request on the wire starts at 2*chunk again — never earlier.
	killer.mu.Lock()
	defer killer.mu.Unlock()
	if len(killer.offsets) < 4 {
		t.Fatalf("expected a resumed upload, saw chunk offsets %v", killer.offsets)
	}
	for i, off := range killer.offsets {
		if i > killer.killAt && off < 2*chunk {
			t.Fatalf("chunk after the kill started at %d — the upload restarted instead of resuming (offsets %v)", off, killer.offsets)
		}
	}
}

// TestChunkOffsetConflict checks the server's resync answer: a chunk at
// the wrong offset is refused with 409 plus the acknowledged offset.
func TestChunkOffsetConflict(t *testing.T) {
	store := newStore(t)
	srv, _ := serve(t, store)
	data := payload(4 << 10)
	digest := hostutil.HashBytes(data)

	put := func(start, end int64) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/blobs/"+digest, bytes.NewReader(data[start:end+1]))
		req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, len(data)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := put(0, 1023); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first chunk = %d, want 202", resp.StatusCode)
	}
	resp := put(2048, 3071) // skips ahead: server only has 1024 bytes
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order chunk = %d, want 409", resp.StatusCode)
	}
	if off := resp.Header.Get("X-Upload-Offset"); off != "1024" {
		t.Fatalf("conflict X-Upload-Offset = %q, want 1024", off)
	}
}

// --- hub mode: write-through, read-through, and degradation ---

// hubPair builds a central server and an edge server wired to it in hub
// mode, returning the two stores and a client pointed at the edge.
func hubPair(t *testing.T) (central, edge *cas.Store, centralSrv *httptest.Server, edgeClient *Client) {
	t.Helper()
	central = newStore(t)
	centralSrv = httptest.NewServer(NewServer(central))
	t.Cleanup(centralSrv.Close)

	edge = newStore(t)
	es := NewServer(edge)
	hub := cas.NewCache(edge, NewClient(centralSrv.URL, time.Second))
	es.SetHub(hub)
	edgeSrv := httptest.NewServer(es)
	t.Cleanup(edgeSrv.Close)
	return central, edge, centralSrv, NewClient(edgeSrv.URL, time.Second)
}

func TestHubWriteThrough(t *testing.T) {
	central, _, _, client := hubPair(t)
	data := []byte("worker-built artifact")
	digest := hostutil.HashBytes(data)
	if err := client.PutBlob(context.Background(), digest, data); err != nil {
		t.Fatal(err)
	}
	got, err := central.Get(digest)
	if err != nil {
		t.Fatalf("blob did not replicate to the hub: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hub holds different bytes")
	}

	a := &cas.Action{Key: hostutil.HashBytes([]byte("task")), Task: "build"}
	if err := client.PutAction(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := central.GetAction(a.Key); err != nil {
		t.Fatalf("action did not replicate to the hub: %v", err)
	}
}

func TestHubReadThrough(t *testing.T) {
	central, edge, _, client := hubPair(t)
	data := []byte("artifact only the hub has")
	digest, err := central.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.GetBlob(context.Background(), digest)
	if err != nil {
		t.Fatalf("edge GET missed despite hub having the blob: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-through returned different bytes")
	}
	if !edge.Has(digest) {
		t.Fatal("read-through did not keep the blob at the edge")
	}
}

func TestHubDownDegradesToLocal(t *testing.T) {
	_, edge, centralSrv, client := hubPair(t)
	centralSrv.Close() // hub gone
	data := []byte("still cached locally")
	digest := hostutil.HashBytes(data)
	if err := client.PutBlob(context.Background(), digest, data); err != nil {
		t.Fatalf("edge PUT failed when the hub was down: %v", err)
	}
	if !edge.Has(digest) {
		t.Fatal("edge did not keep the blob")
	}
	got, err := client.GetBlob(context.Background(), digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("edge GET after hub death = %v", err)
	}
}

// --- GET aborts are the client's problem, not silent truncation ---

func TestGetBlobDetectsTruncatedTransfer(t *testing.T) {
	store := newStore(t)
	data := payload(8 << 10)
	digest, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// A proxy that forwards headers but truncates the body mid-stream.
	inner := NewServer(store)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		body := rec.Body.Bytes()
		if len(body) > 100 {
			body = body[:100]
		}
		w.Write(body)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, time.Second)

	if _, err := client.GetBlob(context.Background(), digest); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("truncated GetBlob: %v, want ErrCorrupt", err)
	}
	rc, _, err := client.GetBlobStream(context.Background(), digest)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatal("truncated GetBlobStream read to EOF without error")
	}
}

// A blob body over the client's bound is "too large", never ErrCorrupt —
// corruption is what quarantine and self-heal act on, and the bytes may be
// fine. Both ways a body arrives are covered: with a declared length (the
// server's own GET path) and without one (a chunked answer from a proxy).
func TestGetBlobOversizeIsNotCorrupt(t *testing.T) {
	store := newStore(t)
	_, client := serve(t, store)
	data := payload(4 << 10)
	digest, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // commits the header with no Content-Length
		w.Write(data)
	}))
	t.Cleanup(chunked.Close)

	for name, c := range map[string]*Client{"declared length": client, "no declared length": NewClient(chunked.URL, time.Second)} {
		// The whole body at exactly the bound is accepted ...
		c.maxBytes = int64(len(data))
		if got, err := c.GetBlob(context.Background(), digest); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: body of exactly the limit: err %v", name, err)
		}
		// ... and one byte over is refused, as too large.
		c.maxBytes = int64(len(data)) - 1
		_, err := c.GetBlob(context.Background(), digest)
		if !errors.Is(err, errTooLarge) || errors.Is(err, cas.ErrCorrupt) {
			t.Errorf("%s: oversize body: %v, want errTooLarge and not ErrCorrupt", name, err)
		}
	}
}

// sanity: the digest in URLs is validated server-side before hitting disk
func TestJunkDigestRejected(t *testing.T) {
	srv, _ := serve(t, newStore(t))
	resp, err := http.Get(srv.URL + "/v1/blobs/" + strings.Repeat("z", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("junk digest served 200")
	}
}
