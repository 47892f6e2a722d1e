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

// DefaultTimeout bounds each coordinator→worker request. It is short:
// requests are tiny control messages, and a worker that cannot answer
// within it is what the lease TTL exists to detect.
const DefaultTimeout = 5 * time.Second

// clientRetries bounds per-request retries (see do).
const clientRetries = 3

// ErrAlreadyLeased reports a Submit refused because the worker already
// holds that job — for the coordinator this is success-shaped (the lease
// exists; a duplicated or retried Submit landed twice), distinguished
// from real refusals so health scoring doesn't punish the worker for our
// own retransmit.
var ErrAlreadyLeased = errors.New("remote: job already leased")

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
// a full URL). A zero timeout uses DefaultTimeout.
func NewWorkerClient(addr string, timeout time.Duration) *WorkerClient {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &WorkerClient{Addr: addr, http: hostutil.NewHTTPClient(addr, timeout)}
}

// SetTransport installs a custom RoundTripper (chaos fault injection).
// A nil rt restores the default transport.
func (c *WorkerClient) SetTransport(rt http.RoundTripper) { c.http.SetTransport(rt) }

// do sends one JSON request — hold is how long the worker was asked to keep
// it open — under the shared retry policy (hostutil.Retry), decoding a 200
// answer into out when non-nil: 429 throttles wait out the worker's
// Retry-After hint, and failures of idempotent calls are retried after a
// short jittered wait (POST /v1/jobs is idempotent too: a duplicate lands as
// 409, which reads as leased). DELETE is never blind-retried: a Steal whose
// response was lost may have succeeded, and re-sending it could "succeed"
// against a job the worker re-acquired — the coordinator's reconcile pass
// resolves that ambiguity instead. Every wait ends with ctx, so a cancelled
// coordinator does not sit out a worker's hint.
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
	policy := hostutil.Retry{Attempts: clientRetries + 1, Transport: method != http.MethodDelete}
	code, _, err := c.http.Do(ctx, req, policy)
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
// holds that job — for the coordinator the lease exists: a duplicated or
// retried request landed twice) or a refusal.
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

// Submit leases one job to the worker: Lease of one. A worker that already
// holds the job is surfaced as ErrAlreadyLeased (success-shaped for the
// coordinator, error-shaped for anyone double-leasing by mistake).
func (c *WorkerClient) Submit(ctx context.Context, spec JobSpec) error {
	codes, err := c.Lease(ctx, []JobSpec{spec})
	if err != nil {
		return err
	}
	switch codes[0] {
	case http.StatusAccepted:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("worker %s: submit %s: %w", c.Addr, spec.Name, ErrAlreadyLeased)
	}
	return fmt.Errorf("worker %s: submit %s: HTTP %d", c.Addr, spec.Name, codes[0])
}

// Events drains the worker's event log from sequence `since`. A positive
// wait (whole milliseconds) asks the worker to hold an empty answer that
// long, until it has an event to report.
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
	if code != http.StatusOK {
		return nil, fmt.Errorf("worker %s: events: HTTP %d", c.Addr, code)
	}
	return evs, nil
}

// Steal asks the worker to give up a still-queued job. It reports true
// when the worker agreed (the job is now unowned and may be re-leased);
// false when the job already started or finished there.
func (c *WorkerClient) Steal(ctx context.Context, job string) (bool, error) {
	code, err := c.do(ctx, 0, http.MethodDelete, "/v1/jobs/"+job, nil, nil)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict, http.StatusNotFound:
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
