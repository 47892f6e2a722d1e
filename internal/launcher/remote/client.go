package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"firemarshal/internal/hostutil"
)

// requestTimeout bounds each attempt of a coordinator→worker request: they
// are tiny control messages. A request out holds up nothing but its answer.
const requestTimeout = 5 * time.Second

// clientRetries bounds per-request retries (see do).
const clientRetries = 3

// ErrWorkerRestarted reports an event poll whose cursor is outside the
// worker's log: the process that handed it out is gone with its leases.
var ErrWorkerRestarted = errors.New("remote: worker restarted")

// maxAnswerSize bounds a worker's answer (a status, lease codes, a batch of
// events): small JSON, read whole into memory.
const maxAnswerSize = 16 << 20

// WorkerClient is the coordinator's handle on one worker daemon.
type WorkerClient struct {
	// Addr is the worker's address as given ("host:port"), used in logs
	// and metrics names.
	Addr string

	http *hostutil.HTTPClient
}

// NewWorkerClient returns a client for the worker at addr ("host:port" or
// a full URL).
func NewWorkerClient(addr string) *WorkerClient {
	return &WorkerClient{Addr: addr, http: hostutil.NewHTTPClient(addr, requestTimeout)}
}

// SetTransport installs a custom RoundTripper (chaos fault injection).
// A nil rt restores the default transport.
func (c *WorkerClient) SetTransport(rt http.RoundTripper) { c.http.SetTransport(rt) }

// do sends one JSON request — hold is how long the worker was asked to keep
// it open — under the shared retry policy (hostutil.Retry), decoding a 200
// answer into out when non-nil. Every request is idempotent, so every
// failure is retried: a duplicate POST /v1/jobs lands as 409, which reads as
// leased, and a duplicate DELETE as 404, which reads as given back. Every
// wait ends with ctx.
func (c *WorkerClient) do(ctx context.Context, hold time.Duration, method, path string, body any, out any) (int, error) {
	req := hostutil.Request{Method: method, Path: path, Hold: hold}
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		req.Body, req.ContentType = data, "application/json"
	}
	if out != nil {
		req.Limit = maxAnswerSize
		req.Decode = func(code int, data []byte) error {
			if code != http.StatusOK {
				return nil
			}
			return json.Unmarshal(data, out)
		}
	}
	code, _, err := c.http.Do(ctx, req, hostutil.Retry{Attempts: clientRetries + 1, Transport: true})
	if err != nil {
		err = fmt.Errorf("worker %s: %w", c.Addr, err)
	}
	return code, err
}

// Status probes the worker — the registration handshake and the heartbeat.
func (c *WorkerClient) Status(ctx context.Context) (*WorkerStatus, error) {
	var st WorkerStatus
	code, err := c.do(ctx, 0, http.MethodGet, "/v1/status", nil, &st)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("worker %s: status: HTTP %d", c.Addr, code)
	}
	return &st, nil
}

// Lease offers the worker specs in one request and returns its answer per
// spec, in order: http.StatusAccepted, http.StatusConflict (it already
// holds that job doing the same work — for the coordinator the lease exists),
// http.StatusLocked (it holds the name for other work) or a refusal.
func (c *WorkerClient) Lease(ctx context.Context, specs []JobSpec) ([]int, error) {
	var codes []int
	code, err := c.do(ctx, 0, http.MethodPost, "/v1/jobs", specs, &codes)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK || len(codes) != len(specs) {
		return nil, fmt.Errorf("worker %s: lease of %d job(s): HTTP %d with %d answer(s)", c.Addr, len(specs), code, len(codes))
	}
	return codes, nil
}

// Events drains the worker's event log from sequence `since`. A positive
// wait (whole milliseconds) asks the worker to hold an empty answer that
// long, until it has an event to report; a cursor outside the worker's log
// is ErrWorkerRestarted.
func (c *WorkerClient) Events(ctx context.Context, since int, wait time.Duration) ([]Event, error) {
	path := "/v1/events?since=" + strconv.Itoa(since)
	if ms := wait.Milliseconds(); ms > 0 {
		path += "&wait=" + strconv.FormatInt(ms, 10)
	}
	var evs []Event
	code, err := c.do(ctx, wait, http.MethodGet, path, nil, &evs)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return evs, nil
	case http.StatusGone:
		return nil, fmt.Errorf("worker %s: events since %d: %w", c.Addr, since, ErrWorkerRestarted)
	}
	return nil, fmt.Errorf("worker %s: events: HTTP %d", c.Addr, code)
}

// Steal asks the worker to give up lease `lease` of a still-queued job. It
// reports true when the lease is not held there (the job is unowned and may
// be re-leased): the worker gave it up (200) or does not hold it (404:
// stolen already, or leased to an earlier process); false when the job
// already started or finished there (409).
func (c *WorkerClient) Steal(ctx context.Context, job string, lease uint64) (bool, error) {
	path := "/v1/jobs/" + job + "?lease=" + strconv.FormatUint(lease, 10)
	code, err := c.do(ctx, 0, http.MethodDelete, path, nil, nil)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK, http.StatusNotFound:
		return true, nil
	case http.StatusConflict:
		return false, nil
	}
	return false, fmt.Errorf("worker %s: steal %s: HTTP %d", c.Addr, job, code)
}

// SplitAddrs parses a comma-separated worker address list (`-workers
// a:1,b:2`), dropping empty entries (trailing commas, "").
func SplitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
