// Package remote provides the HTTP remote-cache protocol over a cas.Store:
// a server that exposes blobs and action-cache entries for GET/HEAD/PUT,
// and a client implementing cas.Remote so builds on other machines (or in
// other checkouts) can share one cache. The protocol stays deliberately
// dumb — content-addressed paths carry all the integrity information — but
// v2 moves the bodies off the heap:
//
//	GET/HEAD/PUT /v1/blobs/<digest>
//	GET/PUT      /v1/actions/<key>
//	GET          /v1/stats
//
// Blob GETs stream straight from the store's disk with Content-Length and
// a digest ETag (If-None-Match revalidation answers 304 without touching
// the blob). Blob PUTs stream to a temp file, hashing in flight — the
// server never buffers a body — and reject digest mismatches, so a
// misbehaving client cannot poison the cache. Large uploads may be sent
// as resumable chunks (Content-Range: bytes <a>-<b>/<total>); the server
// stages them under <store>/uploads and reports the acknowledged offset
// in X-Upload-Offset, so a client whose connection died mid-upload
// HEAD-probes and continues from the last acked chunk instead of
// restarting. A server given a hub cache (SetHub) is a worker-local
// write-through: PUTs replicate upward through the hub cache's circuit
// breaker, and GET misses are answered from the hub and kept locally.
package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// maxEntrySize bounds uploads (blobs and actions) accepted by the server.
const maxEntrySize = 1 << 30 // 1 GiB

// Server serves a cas.Store over HTTP.
type Server struct {
	store    *cas.Store
	mux      *http.ServeMux
	hub      *cas.Cache // optional write/read-through upstream (nil = standalone)
	maxBytes int64      // upload bound (tests shrink it)

	// obsReg resolves nil to obs.Default, mirroring the cas.Cache idiom.
	obsReg *obs.Registry

	// uploads serializes resumable-chunk appends per digest. Entries are
	// created on first chunk and dropped on completion; a stale mutex
	// handed out across a drop only guards a re-checked no-op.
	upMu    sync.Mutex
	uploads map[string]*sync.Mutex
}

// NewServer wraps store in an http.Handler.
func NewServer(store *cas.Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), maxBytes: maxEntrySize, uploads: map[string]*sync.Mutex{}}
	s.mux.HandleFunc("/v1/blobs/", s.handleBlob)
	s.mux.HandleFunc("/v1/actions/", s.handleAction)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// SetHub makes this server a write-through edge of a central cache: hub
// wraps this server's own store as its local side and the central URL as
// its remote, so PUTs replicate upward behind the hub cache's breaker
// (an unreachable hub degrades to local-only, never an error) and GET
// misses read through and stick locally.
func (s *Server) SetHub(hub *cas.Cache) { s.hub = hub }

// SetMaxBytes overrides the upload size bound (tests shrink it; <= 0
// keeps the default).
func (s *Server) SetMaxBytes(n int64) {
	if n > 0 {
		s.maxBytes = n
	}
}

// SetObs directs the server's metrics at a specific registry (nil keeps
// the process-wide obs.Default).
func (s *Server) SetObs(r *obs.Registry) { s.obsReg = r }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func etagFor(digest string) string { return `"` + digest + `"` }

// notModified answers an If-None-Match revalidation: the ETag is the
// digest, and content-addressing makes it eternally strong — a client
// holding any bytes for this digest holds the right ones.
func notModified(w http.ResponseWriter, r *http.Request, digest string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	if inm != "*" && !strings.Contains(inm, etagFor(digest)) {
		return false
	}
	w.Header().Set("ETag", etagFor(digest))
	w.WriteHeader(http.StatusNotModified)
	return true
}

// classifyPutErr maps a streaming-put failure to a status: only an
// oversized body is 413; a torn client body or a digest mismatch is the
// client's fault (400); anything else is the store's problem (500).
func classifyPutErr(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, cas.ErrCorrupt), errors.Is(err, cas.ErrRead):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/v1/blobs/")
	switch r.Method {
	case http.MethodHead:
		s.headBlob(w, r, digest)
	case http.MethodGet:
		s.getBlob(w, r, digest)
	case http.MethodPut:
		if r.Header.Get("Content-Range") != "" {
			s.putChunk(w, r, digest)
			return
		}
		s.putBlob(w, r, digest)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) headBlob(w http.ResponseWriter, r *http.Request, digest string) {
	if size, err := s.store.BlobSize(digest); err == nil {
		w.Header().Set("ETag", etagFor(digest))
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	// Absent blob — but a resumable upload may be staged. Reporting the
	// acknowledged offset here is the resume handshake's probe answer.
	if off := s.uploadOffset(digest); off > 0 {
		w.Header().Set("X-Upload-Offset", strconv.FormatInt(off, 10))
	}
	http.Error(w, "blob not found", http.StatusNotFound)
}

func (s *Server) getBlob(w http.ResponseWriter, r *http.Request, digest string) {
	if notModified(w, r, digest) {
		return
	}
	rc, size, err := s.store.OpenBlob(digest)
	if err != nil {
		// Hub read-through: a miss at this edge may be a hit upstream;
		// Blob() writes it through locally so the next GET streams from
		// disk.
		if s.hub != nil {
			if data, herr := s.hub.Blob(digest); herr == nil {
				s.writeBlobBytes(w, digest, data)
				return
			}
		}
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("ETag", etagFor(digest))
	if _, err := io.Copy(w, rc); err != nil {
		// The status line is long gone; all we can do is count the
		// aborted stream (usually the client hanging up) and let the
		// connection tear down, which tells the client the body is torn.
		s.obsReg.Counter("cache_serve_get_aborts_total").Inc()
	}
}

func (s *Server) writeBlobBytes(w http.ResponseWriter, digest string, data []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("ETag", etagFor(digest))
	if _, err := w.Write(data); err != nil {
		s.obsReg.Counter("cache_serve_get_aborts_total").Inc()
	}
}

func (s *Server) putBlob(w http.ResponseWriter, r *http.Request, digest string) {
	if _, err := s.store.PutStream(digest, http.MaxBytesReader(w, r.Body, s.maxBytes)); err != nil {
		http.Error(w, err.Error(), classifyPutErr(err))
		return
	}
	s.pushHub(digest)
	w.WriteHeader(http.StatusCreated)
}

// pushHub write-throughs a just-stored blob to the hub, best-effort
// behind the hub cache's breaker.
func (s *Server) pushHub(digest string) {
	if s.hub != nil {
		s.hub.PushBlob(digest)
	}
}

// uploadLock returns the per-digest mutex serializing chunk appends.
func (s *Server) uploadLock(digest string) *sync.Mutex {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	m := s.uploads[digest]
	if m == nil {
		m = &sync.Mutex{}
		s.uploads[digest] = m
	}
	return m
}

func (s *Server) dropUploadLock(digest string) {
	s.upMu.Lock()
	delete(s.uploads, digest)
	s.upMu.Unlock()
}

// uploadOffset reports how many bytes of a staged resumable upload are
// acknowledged (0 when none is in progress).
func (s *Server) uploadOffset(digest string) int64 {
	path, err := s.store.UploadPath(digest)
	if err != nil {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// parseContentRange parses "bytes <start>-<end>/<total>".
func parseContentRange(h string) (start, end, total int64, err error) {
	if n, serr := fmt.Sscanf(h, "bytes %d-%d/%d", &start, &end, &total); serr != nil || n != 3 {
		return 0, 0, 0, fmt.Errorf("malformed Content-Range %q", h)
	}
	if start < 0 || end < start || total <= end {
		return 0, 0, 0, fmt.Errorf("inconsistent Content-Range %q", h)
	}
	return start, end, total, nil
}

// putChunk appends one Content-Range chunk to the staged upload for
// digest. Chunks must arrive in order at the acknowledged offset; an
// out-of-sync client gets 409 plus the offset to re-sync to. A torn
// chunk is rolled back whole, so the staged file only ever grows by
// complete acknowledged chunks — the invariant the resume handshake
// relies on. The final chunk re-hashes the assembled file and promotes
// it into the store (or rejects the whole upload on mismatch).
func (s *Server) putChunk(w http.ResponseWriter, r *http.Request, digest string) {
	start, end, total, err := parseContentRange(r.Header.Get("Content-Range"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if total > s.maxBytes {
		http.Error(w, "upload too large", http.StatusRequestEntityTooLarge)
		return
	}
	mu := s.uploadLock(digest)
	mu.Lock()
	defer mu.Unlock()
	if s.store.Has(digest) {
		// Another client (or a previous attempt) already completed it.
		w.Header().Set("X-Upload-Offset", strconv.FormatInt(total, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	path, err := s.store.UploadPath(digest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var cur int64
	if fi, serr := os.Stat(path); serr == nil {
		cur = fi.Size()
	}
	if start != cur {
		w.Header().Set("X-Upload-Offset", strconv.FormatInt(cur, 10))
		http.Error(w, fmt.Sprintf("upload offset is %d, chunk starts at %d", cur, start), http.StatusConflict)
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	want := end - start + 1
	n, err := io.Copy(f, http.MaxBytesReader(w, r.Body, want))
	cerr := f.Close()
	if err != nil || cerr != nil || n != want {
		// Torn or over-long chunk: drop it entirely, back to the last
		// acked boundary.
		os.Truncate(path, cur)
		w.Header().Set("X-Upload-Offset", strconv.FormatInt(cur, 10))
		http.Error(w, fmt.Sprintf("chunk not fully received (%d of %d bytes)", n, want), http.StatusBadRequest)
		return
	}
	if end+1 < total {
		s.obsReg.Counter("cache_serve_chunks_total").Inc()
		w.Header().Set("X-Upload-Offset", strconv.FormatInt(end+1, 10))
		w.WriteHeader(http.StatusAccepted)
		return
	}
	// Final chunk: verify and promote.
	if err := s.store.IngestFile(digest, path); err != nil {
		os.Remove(path)
		s.dropUploadLock(digest)
		status := http.StatusInternalServerError
		if errors.Is(err, cas.ErrCorrupt) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.dropUploadLock(digest)
	s.obsReg.Counter("cache_serve_uploads_completed_total").Inc()
	s.pushHub(digest)
	w.Header().Set("X-Upload-Offset", strconv.FormatInt(total, 10))
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleAction(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/actions/")
	switch r.Method {
	case http.MethodGet:
		a, err := s.store.GetAction(key)
		if err != nil {
			if s.hub != nil {
				// Read-through: Lookup consults the hub and writes a hit
				// into the local store.
				if ha := s.hub.Lookup(key); ha != nil {
					a = ha
				}
			}
			if a == nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a)
	case http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			} else {
				http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			}
			return
		}
		var a cas.Action
		if err := json.Unmarshal(data, &a); err != nil {
			http.Error(w, "malformed action entry", http.StatusBadRequest)
			return
		}
		if a.Key != key {
			http.Error(w, "action key does not match URL", http.StatusBadRequest)
			return
		}
		if err := s.store.PutAction(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.hub != nil {
			s.hub.PushAction(&a)
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	u, err := s.store.Usage()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(u)
}

// Client talks to a Server; it implements cas.Remote. Every request runs
// under the caller's context with the configured timeout layered on top,
// so a hung server costs a bounded delay (the cas.Cache breaker then stops
// calling us entirely) and a cancelled build aborts its in-flight
// transfers immediately instead of waiting them out. Streaming transfers
// get a proportionally larger deadline (streamTimeoutFactor) since their
// bodies legitimately outlive a control round-trip.
type Client struct {
	base     string
	timeout  time.Duration
	chunk    int64
	maxBytes int64 // largest blob body GetBlob accepts (tests shrink it)
	hc       *http.Client
	sleep    func(time.Duration) // injectable for tests; nil = real timer
}

// DefaultTimeout bounds each remote-cache request.
const DefaultTimeout = 5 * time.Second

// streamTimeoutFactor scales the per-request timeout for streaming
// transfers (GetBlobStream bodies, upload chunks): a 1 GiB body cannot
// finish under a control-plane deadline, but it must still be bounded so
// a hung server cannot wedge a worker forever.
const streamTimeoutFactor = 60

// DefaultChunkSize is the resumable-upload chunk granularity. Each chunk
// is one request (acked server-side before the next), so it is also the
// most a torn connection can cost.
const DefaultChunkSize int64 = 8 << 20 // 8 MiB

// rateLimitRetries is how many 429 answers one logical request absorbs
// (honoring Retry-After each time) before giving up and surfacing a
// cas.RateLimitedError for the breaker's hold logic.
const rateLimitRetries = 3

// uploadResumes bounds how many transport failures one PutBlobFile rides
// out by re-probing and resuming before surfacing the error.
const uploadResumes = 5

// NewClient returns a client for the server at base (e.g.
// "http://cache-host:8080"). A zero timeout uses DefaultTimeout.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimSuffix(base, "/"), timeout: timeout, chunk: DefaultChunkSize, maxBytes: maxEntrySize, hc: &http.Client{}}
}

// SetTransport installs a custom RoundTripper (chaos fault injection,
// instrumentation). A nil rt restores the default transport.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.hc.Transport = rt
}

// SetChunkSize overrides the resumable-upload chunk size (tests shrink
// it to exercise multi-chunk paths on small payloads; <= 0 keeps the
// default).
func (c *Client) SetChunkSize(n int64) {
	if n > 0 {
		c.chunk = n
	}
}

func (c *Client) blobURL(digest string) string { return c.base + "/v1/blobs/" + digest }
func (c *Client) actionURL(key string) string  { return c.base + "/v1/actions/" + key }

// reqOpts carries the per-request extras threaded through do/doOnce.
type reqOpts struct {
	contentType string
	hdr         map[string]string
	stream      bool // body outlives a control round-trip: scale the deadline
}

// doOnce issues one request with the per-request deadline layered onto
// ctx. The returned cancel must be held until the response body is
// consumed — cancelling releases the request's resources and aborts a
// stalled body. A 429 comes back as a hostutil.Throttled error carrying
// the server's hint.
func (c *Client) doOnce(ctx context.Context, method, url string, body []byte, o reqOpts) (*http.Response, context.CancelFunc, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := c.timeout
	if o.stream {
		timeout *= streamTimeoutFactor
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if o.contentType != "" {
		req.Header.Set("Content-Type", o.contentType)
	}
	for k, v := range o.hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("remote cache: %w", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		th := &hostutil.Throttled{After: hostutil.RetryAfter(resp.Header)}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		return nil, nil, th
	}
	return resp, cancel, nil
}

// do wraps doOnce in the shared retry policy (hostutil.Retry) for 429s
// only: each throttled answer's Retry-After hint is waited out, cancellably
// and with deterministic jitter keyed by URL, a bounded number of times.
// Exhausting the budget returns a cas.RateLimitedError so the Cache breaker
// holds off instead of counting the healthy-but-busy remote as failed;
// transport failures surface at once — the breaker owns those. All protocol
// methods are idempotent (content-addressed GET/HEAD/PUT), so retrying is
// safe.
func (c *Client) do(ctx context.Context, method, url string, body []byte, o reqOpts) (*http.Response, context.CancelFunc, error) {
	var resp *http.Response
	var cancel context.CancelFunc
	err := hostutil.Retry{Attempts: rateLimitRetries + 1, Sleep: c.sleep}.Do(ctx, url, func() (err error) {
		resp, cancel, err = c.doOnce(ctx, method, url, body, o)
		return err
	})
	var th *hostutil.Throttled
	if errors.As(err, &th) {
		err = &cas.RateLimitedError{RetryAfter: th.After}
	}
	return resp, cancel, err
}

// GetBlob fetches blob bytes, verifying the digest before returning them.
func (c *Client) GetBlob(ctx context.Context, digest string) ([]byte, error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, c.blobURL(digest), nil, reqOpts{})
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("remote cache: blob %s: %w", digest, cas.ErrNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote cache: GET blob: %s", resp.Status)
	}
	data, err := readBody(resp, c.maxBytes)
	if err != nil {
		return nil, fmt.Errorf("remote cache: blob %s: %w", digest, err)
	}
	if hostutil.HashBytes(data) != digest {
		return nil, fmt.Errorf("remote cache: blob %s: %w", digest, cas.ErrCorrupt)
	}
	return data, nil
}

// errTooLarge reports a blob body over the client's size bound. It is not
// cas.ErrCorrupt: the bytes may be exactly right, and corruption is what
// quarantine and self-heal act on.
var errTooLarge = errors.New("body too large")

// readBody reads a whole response body of at most limit bytes. A declared
// Content-Length is refused up front when over the limit and otherwise sizes
// the buffer once (a short body is io.ErrUnexpectedEOF); without one the
// body is read to EOF through a reader that stops one byte past the limit,
// so an oversized body is told apart from one of exactly limit bytes.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errTooLarge, n, limit)
	} else if n >= 0 {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: limit %d", errTooLarge, limit)
	}
	return data, err
}

// verifyReader hashes a streamed blob body as it passes through and
// rejects the final read if the bytes do not add up to the digest — the
// streaming equivalent of GetBlob's whole-body check. Close aborts a
// partially-consumed body.
type verifyReader struct {
	body   io.ReadCloser
	cancel context.CancelFunc
	want   string
	sum    [sha256.Size]byte // scratch; avoids a Sum allocation per Read
	h      hash.Hash
}

func (v *verifyReader) Read(p []byte) (int, error) {
	n, err := v.body.Read(p)
	v.h.Write(p[:n])
	if err == io.EOF {
		if hex.EncodeToString(v.h.Sum(v.sum[:0])) != v.want {
			return n, fmt.Errorf("remote cache: blob %s: %w", v.want, cas.ErrCorrupt)
		}
	}
	return n, err
}

func (v *verifyReader) Close() error {
	err := v.body.Close()
	v.cancel()
	return err
}

// GetBlobStream fetches a blob as a verified stream: the returned reader
// yields the body incrementally (never buffering it whole) and refuses
// to report EOF unless the bytes hash to the digest, so a truncated or
// corrupted transfer surfaces as cas.ErrCorrupt at the tail instead of
// silently producing short content. The declared size rides along for
// progress accounting.
func (c *Client) GetBlobStream(ctx context.Context, digest string) (io.ReadCloser, int64, error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, c.blobURL(digest), nil, reqOpts{stream: true})
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		return nil, 0, fmt.Errorf("remote cache: blob %s: %w", digest, cas.ErrNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		return nil, 0, fmt.Errorf("remote cache: GET blob: %s", resp.Status)
	}
	return &verifyReader{body: resp.Body, cancel: cancel, want: digest, h: sha256.New()}, resp.ContentLength, nil
}

// PutBlob uploads blob bytes.
func (c *Client) PutBlob(ctx context.Context, digest string, data []byte) error {
	resp, cancel, err := c.do(ctx, http.MethodPut, c.blobURL(digest), data, reqOpts{contentType: "application/octet-stream"})
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote cache: PUT blob: %s", resp.Status)
	}
	return nil
}

// probeUpload asks the server where an upload for digest stands: done
// (the blob exists), or resumable from the acknowledged offset.
func (c *Client) probeUpload(ctx context.Context, digest string) (offset int64, done bool, err error) {
	resp, cancel, err := c.do(ctx, http.MethodHead, c.blobURL(digest), nil, reqOpts{})
	if err != nil {
		return 0, false, err
	}
	defer cancel()
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return 0, true, nil
	case http.StatusNotFound:
		off, _ := strconv.ParseInt(resp.Header.Get("X-Upload-Offset"), 10, 64)
		if off < 0 {
			off = 0
		}
		return off, false, nil
	default:
		return 0, false, fmt.Errorf("remote cache: HEAD blob: %s", resp.Status)
	}
}

// PutBlobFile uploads a file-backed blob. Files within one chunk go up
// as a single PUT; larger ones go as resumable Content-Range
// chunks, each acknowledged before the next, so a connection dropped at
// chunk N costs at most one chunk — the retry HEAD-probes the server for
// the acked offset and resumes there instead of restarting the upload.
// The server re-hashes the assembled bytes before admitting them, so a
// resumed upload is bit-identical or rejected.
func (c *Client) PutBlobFile(ctx context.Context, digest, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size()
	if size <= c.chunk {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return c.PutBlob(ctx, digest, data)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	off, done, err := c.probeUpload(ctx, digest)
	if err != nil {
		return err
	}
	if done {
		return nil
	}
	buf := make([]byte, c.chunk)
	resumes := 0
	for off < size {
		n := c.chunk
		if size-off < n {
			n = size - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return fmt.Errorf("remote cache: reading %s for upload: %w", path, err)
		}
		o := reqOpts{
			contentType: "application/octet-stream",
			hdr:         map[string]string{"Content-Range": fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, size)},
			stream:      true,
		}
		resp, cancel, err := c.do(ctx, http.MethodPut, c.blobURL(digest), buf[:n], o)
		if err != nil {
			// Transport drop mid-chunk. Re-probe for the acked offset
			// and resume; only a cancelled context or an exhausted
			// resume budget gives up.
			if ctx != nil && ctx.Err() != nil {
				return err
			}
			if resumes++; resumes > uploadResumes {
				return err
			}
			noff, done, perr := c.probeUpload(ctx, digest)
			if perr != nil {
				return err
			}
			if done {
				return nil
			}
			off = noff
			continue
		}
		serverOff, _ := strconv.ParseInt(resp.Header.Get("X-Upload-Offset"), 10, 64)
		status := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		switch status {
		case http.StatusCreated, http.StatusOK:
			return nil // final chunk admitted (or raced to completion)
		case http.StatusAccepted:
			off = serverOff
			resumes = 0
		case http.StatusConflict:
			// Another uploader moved the offset, or ours went stale:
			// adopt the server's and continue (bounded like a resume so
			// two clients cannot ping-pong forever).
			if resumes++; resumes > uploadResumes {
				return fmt.Errorf("remote cache: PUT blob chunk: offset would not converge")
			}
			off = serverOff
		default:
			return fmt.Errorf("remote cache: PUT blob chunk: %d %s", status, http.StatusText(status))
		}
	}
	return fmt.Errorf("remote cache: upload of %s never completed", digest)
}

// HasBlob reports blob presence via a HEAD probe. Only a definitive 404
// is "absent": any other non-200 answer (a 5xx, a proxy error) surfaces
// as an error so the caller's health accounting sees a failing remote
// instead of concluding the blob does not exist.
func (c *Client) HasBlob(ctx context.Context, digest string) (bool, error) {
	resp, cancel, err := c.do(ctx, http.MethodHead, c.blobURL(digest), nil, reqOpts{})
	if err != nil {
		return false, err
	}
	defer cancel()
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("remote cache: HEAD blob: %s", resp.Status)
	}
}

// GetAction fetches an action-cache entry.
func (c *Client) GetAction(ctx context.Context, key string) (*cas.Action, error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, c.actionURL(key), nil, reqOpts{})
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("remote cache: action %s: %w", key, cas.ErrNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote cache: GET action: %s", resp.Status)
	}
	var a cas.Action
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxEntrySize)).Decode(&a); err != nil {
		return nil, fmt.Errorf("remote cache: decoding action: %w", err)
	}
	return &a, nil
}

// PutAction uploads an action-cache entry.
func (c *Client) PutAction(ctx context.Context, a *cas.Action) error {
	data, err := json.Marshal(a)
	if err != nil {
		return err
	}
	resp, cancel, err := c.do(ctx, http.MethodPut, c.actionURL(a.Key), data, reqOpts{contentType: "application/json"})
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote cache: PUT action: %s", resp.Status)
	}
	return nil
}
