package hostutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPClient is the one HTTP client under every network client in the tree
// (the remote-cache client, the coordinator's worker client): bytes in,
// status and bytes out. Each request runs under the caller's context with the
// client's timeout layered on, so a hung server costs a bounded delay and a
// cancelled caller aborts its in-flight request at once; a 429 becomes a
// Throttled error carrying the server's hint; and the whole exchange runs
// under the Retry policy the caller passes per call.
type HTTPClient struct {
	base    string
	timeout time.Duration
	hc      http.Client
	// Sleep, when set, replaces the real timer between attempts (tests).
	Sleep func(time.Duration)
}

// NewHTTPClient returns a client for the server at addr ("host:port" or a
// full URL), bounding each request by timeout.
func NewHTTPClient(addr string, timeout time.Duration) *HTTPClient {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &HTTPClient{base: strings.TrimSuffix(addr, "/"), timeout: timeout}
}

// SetTransport installs a custom RoundTripper (chaos fault injection,
// instrumentation). A nil rt restores the default transport.
func (c *HTTPClient) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// Request is one exchange: Body goes out (nil sends none) with ContentType,
// and at most Limit bytes of the answer's body come back.
type Request struct {
	Method, Path, ContentType string
	Body                      []byte
	// Hold is how long the server was asked to keep the request open (a
	// long-poll); the deadline is extended by it.
	Hold time.Duration
	// Limit bounds the answer body read back; zero reads none.
	Limit int64
	// Decode, when set, reads the answer inside the attempt, so that one it
	// refuses (JSON cut short in transit) is retried like a failed exchange.
	Decode func(status int, body []byte) error
}

// ErrTooLarge reports an answer body over the request's Limit. It is not a
// corruption error: the bytes may be exactly right.
var ErrTooLarge = errors.New("body too large")

// Do sends req until policy gives up, returning the last answer's status and
// body. Any status but 429 is an answer, not an error — callers judge it.
func (c *HTTPClient) Do(ctx context.Context, req Request, policy Retry) (status int, body []byte, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	policy.Sleep = c.Sleep
	url := c.base + req.Path
	err = policy.Do(ctx, url, func() (err error) {
		status, body, err = c.doOnce(ctx, url, req)
		return err
	})
	return status, body, err
}

func (c *HTTPClient) doOnce(ctx context.Context, url string, req Request) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout+req.Hold)
	defer cancel()
	var rd io.Reader
	if req.Body != nil {
		rd = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.Method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if req.ContentType != "" {
		hreq.Header.Set("Content-Type", req.ContentType)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", req.Method, url, &Throttled{After: RetryAfter(resp.Header)})
	}
	// A HEAD answer declares the length of a body it does not carry.
	if req.Limit <= 0 || req.Method == http.MethodHead {
		return resp.StatusCode, nil, nil
	}
	body, err := readBody(resp, req.Limit)
	if err == nil && req.Decode != nil {
		err = req.Decode(resp.StatusCode, body)
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading answer: %w", req.Method, url, err)
	}
	return resp.StatusCode, body, nil
}

// readBody reads a whole response body of at most limit bytes. A declared
// Content-Length is refused up front when over the limit and otherwise sizes
// the buffer once (a short body is io.ErrUnexpectedEOF); without one the
// body is read to EOF through a reader that stops one byte past the limit,
// so an oversized body is told apart from one of exactly limit bytes.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrTooLarge, n, limit)
	} else if n > 0 {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: limit %d", ErrTooLarge, limit)
	}
	return data, err
}
