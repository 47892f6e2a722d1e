package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
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
	client := NewClient(srv.URL, time.Second) // real timer path: no injected Sleep

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
	client.http.Sleep = func(time.Duration) { attempts++ }

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

	// An action entry has its own, fixed bound: it is read whole into memory.
	req = httptest.NewRequest(http.MethodPut, "/v1/actions/"+digest, bytes.NewReader(payload(maxActionSize+1)))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT action = %d, want 413 (got body %q)", w.Code, w.Body.String())
	}
}

// The same bound holds in the other direction: an action answer over it is
// refused as too large — not as corrupt, and not read into memory.
func TestGetActionOversizeAnswer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload(maxActionSize + 1))
	}))
	t.Cleanup(srv.Close)
	_, err := NewClient(srv.URL, time.Second).GetAction(context.Background(), hostutil.HashStrings("k"))
	if !errors.Is(err, hostutil.ErrTooLarge) || errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("oversize action answer: %v, want ErrTooLarge and not ErrCorrupt", err)
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

// --- a blob crosses whole or not at all ---

// storeFiles lists every regular file under the store's directory, temp
// files and staging included — all but the action log, which every store
// has from Open.
func storeFiles(t *testing.T, store *cas.Store) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(store.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && path != filepath.Join(store.Dir(), "actions") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestContentRangePutRefused: a client that still speaks the resumable-chunk
// sub-protocol is refused — its first chunk is not stored as a short blob
// under the full blob's digest, and nothing is staged.
func TestContentRangePutRefused(t *testing.T) {
	store := newStore(t)
	srv, _ := serve(t, store)
	data := payload(4 << 10)
	digest := hostutil.HashBytes(data)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+blobPath(digest), bytes.NewReader(data[:1024]))
	req.Header.Set("Content-Range", fmt.Sprintf("bytes 0-1023/%d", len(data)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("Content-Range PUT = %d, want 400", resp.StatusCode)
	}
	if files := storeFiles(t, store); len(files) != 0 {
		t.Fatalf("refused chunk left files under the store: %v", files)
	}
}

// TestBlobBodiesStream holds both blob directions to streaming: a GET and a
// PUT of an 8 MiB blob through a live server each allocate under 1 MiB in
// the whole process, where buffering the body once, on either side, costs
// at least 8 MiB. The client here streams too (a reader out, a discard
// in), so the count is the server's. Each figure is the least of three
// requests on a warm connection, so a stray goroutine of another test
// cannot fail it; the PUT's blob is removed before each request, so every
// one reaches the store's streaming write.
func TestBlobBodiesStream(t *testing.T) {
	const size, limit = 8 << 20, 1 << 20
	store := newStore(t)
	srv, _ := serve(t, store)
	data := payload(size)
	digest := hostutil.HashBytes(data)
	do := func(method string, body io.Reader, want int) {
		req, err := http.NewRequest(method, srv.URL+blobPath(digest), body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != want || method == http.MethodGet && n != size {
			t.Fatalf("%s = %d with %d body bytes (err %v), want %d", method, resp.StatusCode, n, err, want)
		}
	}
	allocated := func(op func()) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	do(http.MethodHead, nil, http.StatusNotFound) // open the connection

	put := allocated(func() {
		if err := os.Remove(cas.BlobPath(store.Dir(), digest)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		do(http.MethodPut, bytes.NewReader(data), http.StatusCreated)
	})
	get := allocated(func() { do(http.MethodGet, nil, http.StatusOK) })
	if put >= limit {
		t.Errorf("a %d MiB PUT allocated %d bytes, want < %d: the body was buffered", size>>20, put, limit)
	}
	if get >= limit {
		t.Errorf("a %d MiB GET allocated %d bytes, want < %d: the body was buffered", size>>20, get, limit)
	}
	t.Logf("allocated per request: PUT %d bytes, GET %d bytes", put, get)
}

// tornPuts forwards requests, cutting the body of the first n PUTs halfway —
// a connection that dies mid-upload, as the server sees it.
type tornPuts struct {
	mu   sync.Mutex
	n    int
	puts int
}

func (k *tornPuts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		k.mu.Lock()
		tear := k.puts < k.n
		k.puts++
		k.mu.Unlock()
		if tear {
			req = req.Clone(req.Context())
			req.Body = io.NopCloser(io.MultiReader(io.LimitReader(req.Body, req.ContentLength/2), &failingBody{}))
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestTornPutLeavesNothingThenRetrySucceeds is the kill-mid-upload smoke: a
// PUT torn mid-body fails and leaves no trace in the store — no short blob,
// no temp file — and the caller's whole-blob retry (cas.PutBlob) then lands
// it bit-identically.
func TestTornPutLeavesNothingThenRetrySucceeds(t *testing.T) {
	store := newStore(t)
	inner := NewServer(store)
	handled := make(chan struct{}, 8) // one token per request served; never more than 3 here
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		handled <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, time.Second)
	killer := &tornPuts{n: 2}
	client.SetTransport(killer)
	data := payload(256<<10 + 123)
	digest := hostutil.HashBytes(data)

	if err := client.PutBlob(context.Background(), digest, data); err == nil {
		t.Fatal("a PUT torn mid-body succeeded")
	}
	<-handled
	if files := storeFiles(t, store); len(files) != 0 {
		t.Fatalf("torn PUT left files under the store: %v", files)
	}

	if err := cas.PutBlob(context.Background(), client, digest, data); err != nil {
		t.Fatalf("whole-blob retry did not ride out the torn PUT: %v", err)
	}
	if killer.puts != 3 {
		t.Fatalf("%d PUTs on the wire, want 3 (two torn, one whole)", killer.puts)
	}
	got, err := store.Get(digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("retried upload stored different bytes (err %v)", err)
	}
}

// The server streams a blob off its disk without checking it; the client's
// digest check is what refuses bytes that rotted there.
func TestGetBlobDetectsCorruption(t *testing.T) {
	store := newStore(t)
	_, client := serve(t, store)
	data := payload(4 << 10)
	digest, err := store.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0xff // same length
	if err := hostutil.WriteFileAtomic(cas.BlobPath(store.Dir(), digest), data, 0o444); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetBlob(context.Background(), digest); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("GetBlob of a rotted blob: %v, want ErrCorrupt", err)
	}
}

// --- a failing store is not an absent entry ---

// TestStoreFaultIs500Not404: a lookup that fails for any reason but "not
// there" answers 500, so clients and their breakers see a failing server
// instead of a miss. The fault is a directory where a file belongs — the
// blob's, and the action log's once the open handle finds its own file
// gone — which reads as EISDIR, not "absent", and does not depend on
// permissions.
func TestStoreFaultIs500Not404(t *testing.T) {
	store := newStore(t)
	srv, client := serve(t, store)
	digest := hostutil.HashBytes([]byte("behind a broken store"))
	log := filepath.Join(store.Dir(), "actions")
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{cas.BlobPath(store.Dir(), digest), log} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	do := func(method, path string, body []byte) int {
		req, _ := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	action := mustJSON(t, &cas.Action{Key: digest, Task: "bin:w"})
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, blobPath(digest), nil},
		{http.MethodHead, blobPath(digest), nil},
		{http.MethodGet, actionPath(digest), nil},
		{http.MethodPut, actionPath(digest), action},
	} {
		if code := do(c.method, c.path, c.body); code != http.StatusInternalServerError {
			t.Errorf("%s %s on a failing store = %d, want 500", c.method, c.path[:12], code)
		}
	}
	if _, err := client.GetBlob(context.Background(), digest); err == nil || errors.Is(err, cas.ErrNotFound) {
		t.Errorf("GetBlob on a failing store: %v, want an error that is not ErrNotFound", err)
	}
	// A key that is no digest is still the client's mistake.
	junk := strings.Repeat("z", 64)
	if code := do(http.MethodPut, actionPath(junk), mustJSON(t, &cas.Action{Key: junk})); code != http.StatusBadRequest {
		t.Errorf("PUT action under a junk key = %d, want 400", code)
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
		if !errors.Is(err, hostutil.ErrTooLarge) || errors.Is(err, cas.ErrCorrupt) {
			t.Errorf("%s: oversize body: %v, want ErrTooLarge and not ErrCorrupt", name, err)
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
