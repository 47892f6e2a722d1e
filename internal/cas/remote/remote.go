// Package remote provides the HTTP remote-cache protocol over a cas.Store:
// a server that exposes blobs and action-cache entries for GET/HEAD/PUT,
// and a client implementing cas.Remote so builds on other machines (or in
// other checkouts) can share one cache. The protocol stays deliberately
// dumb — content-addressed paths carry all the integrity information:
//
//	GET/HEAD/PUT /v1/blobs/<digest>
//	GET/PUT      /v1/actions/<key>
//	GET          /v1/stats
//
// The server streams: blob GETs go straight from the store's disk with
// Content-Length and a digest ETag (If-None-Match revalidation answers 304
// without touching the blob), and blob PUTs spill to a temp file, hashing in
// flight — the server never buffers a body that arrives from outside — and
// reject digest mismatches, so a misbehaving client cannot poison the cache.
// A PUT is the whole blob or nothing: a torn one leaves no trace and the
// caller retries it whole (content-addressed PUTs are idempotent). The
// client holds one blob at a time, bounded by maxEntrySize. A server given
// a hub cache (SetHub) is a worker-local write-through: PUTs replicate
// upward through the hub cache's circuit breaker, and GET misses are
// answered from the hub and kept locally.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// maxEntrySize bounds a blob body, in either direction: what the server
// accepts on PUT and what the client reads back on GET.
const maxEntrySize = 1 << 30 // 1 GiB

// maxActionSize bounds an action entry (a few hundred bytes of JSON), which
// both sides read whole into memory, in either direction.
const maxActionSize = 1 << 20 // 1 MiB

// Server serves a cas.Store over HTTP.
type Server struct {
	store    *cas.Store
	mux      *http.ServeMux
	hub      *cas.Cache // optional write/read-through upstream (nil = standalone)
	maxBytes int64      // blob upload bound (tests shrink it)

	// obsReg resolves nil to obs.Default, mirroring the cas.Cache idiom.
	obsReg *obs.Registry
}

// NewServer wraps store in an http.Handler.
func NewServer(store *cas.Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), maxBytes: maxEntrySize}
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

// SetMaxBytes overrides the blob upload size bound (tests shrink it; <= 0
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

// classifyPutErr maps a failed put to a status: only an oversized body is
// 413; a torn client body, a digest mismatch or a key that is no digest is
// the client's fault (400); anything else is the store's problem (500).
func classifyPutErr(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, cas.ErrCorrupt), errors.Is(err, cas.ErrRead), errors.Is(err, cas.ErrInvalid):
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
		s.putBlob(w, r, digest)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// storeErr answers a failed store lookup: only a definitive "not there" is
// 404; anything else is this server's own fault, which the client's breaker
// must see as such.
func storeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, cas.ErrNotFound) {
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) headBlob(w http.ResponseWriter, r *http.Request, digest string) {
	size, err := s.store.BlobSize(digest)
	if err != nil {
		storeErr(w, err)
		return
	}
	w.Header().Set("ETag", etagFor(digest))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
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
		storeErr(w, err)
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
				storeErr(w, err)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a)
	case http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxActionSize))
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
			http.Error(w, err.Error(), classifyPutErr(err))
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
// transfers immediately instead of waiting them out. A blob crosses whole,
// in one request and one buffer: the timeout and maxEntrySize bound what a
// client can move.
type Client struct {
	http     *hostutil.HTTPClient
	maxBytes int64 // largest blob body GetBlob accepts (tests shrink it)
}

// DefaultTimeout bounds each remote-cache request.
const DefaultTimeout = 5 * time.Second

// rateLimitRetries is how many 429 answers one logical request absorbs
// (honoring Retry-After each time) before giving up and surfacing a
// cas.RateLimitedError for the breaker's hold logic.
const rateLimitRetries = 3

// NewClient returns a client for the server at base (e.g.
// "http://cache-host:8080"). A zero timeout uses DefaultTimeout.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{http: hostutil.NewHTTPClient(base, timeout), maxBytes: maxEntrySize}
}

// SetTransport installs a custom RoundTripper (chaos fault injection,
// instrumentation). A nil rt restores the default transport.
func (c *Client) SetTransport(rt http.RoundTripper) { c.http.SetTransport(rt) }

func blobPath(digest string) string { return "/v1/blobs/" + digest }
func actionPath(key string) string  { return "/v1/actions/" + key }

// do sends one request under the shared retry policy (hostutil.Retry) for
// 429s only: each throttled answer's Retry-After hint is waited out,
// cancellably and with deterministic jitter keyed by URL, a bounded number
// of times. Exhausting the budget returns a cas.RateLimitedError so the
// Cache breaker holds off instead of counting the healthy-but-busy remote
// as failed; transport failures surface at once — the breaker owns those.
func (c *Client) do(ctx context.Context, req hostutil.Request) (int, []byte, error) {
	status, body, err := c.http.Do(ctx, req, hostutil.Retry{Attempts: rateLimitRetries + 1})
	var th *hostutil.Throttled
	switch {
	case errors.As(err, &th):
		err = &cas.RateLimitedError{RetryAfter: th.After}
	case err != nil:
		err = fmt.Errorf("remote cache: %w", err)
	}
	return status, body, err
}

// statusErr names an answer that is neither the success nor the definitive
// 404 the caller knows how to read.
func statusErr(req hostutil.Request, status int) error {
	return fmt.Errorf("remote cache: %s %s: %d %s", req.Method, req.Path, status, http.StatusText(status))
}

// get fetches the body at path, at most limit bytes of it: a 404 is
// cas.ErrNotFound for what, any other answer but 200 an error.
func (c *Client) get(ctx context.Context, what, path string, limit int64) ([]byte, error) {
	req := hostutil.Request{Method: http.MethodGet, Path: path, Limit: limit}
	status, data, err := c.do(ctx, req)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusNotFound:
		return nil, fmt.Errorf("remote cache: %s: %w", what, cas.ErrNotFound)
	case status != http.StatusOK:
		return nil, statusErr(req, status)
	}
	return data, nil
}

// GetBlob fetches blob bytes, verifying the digest before returning them.
func (c *Client) GetBlob(ctx context.Context, digest string) ([]byte, error) {
	data, err := c.get(ctx, "blob "+digest, blobPath(digest), c.maxBytes)
	if err == nil && hostutil.HashBytes(data) != digest {
		return nil, fmt.Errorf("remote cache: blob %s: %w", digest, cas.ErrCorrupt)
	}
	return data, err
}

// put sends a PUT and expects the server to have stored the body.
func (c *Client) put(ctx context.Context, req hostutil.Request) error {
	req.Method = http.MethodPut
	status, _, err := c.do(ctx, req)
	if err == nil && status != http.StatusCreated && status != http.StatusOK {
		err = statusErr(req, status)
	}
	return err
}

// PutBlob uploads blob bytes.
func (c *Client) PutBlob(ctx context.Context, digest string, data []byte) error {
	return c.put(ctx, hostutil.Request{Path: blobPath(digest), ContentType: "application/octet-stream", Body: data})
}

// GetAction fetches an action-cache entry.
func (c *Client) GetAction(ctx context.Context, key string) (*cas.Action, error) {
	data, err := c.get(ctx, "action "+key, actionPath(key), maxActionSize)
	if err != nil {
		return nil, err
	}
	var a cas.Action
	if err := json.Unmarshal(data, &a); err != nil {
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
	return c.put(ctx, hostutil.Request{Path: actionPath(a.Key), ContentType: "application/json", Body: data})
}
