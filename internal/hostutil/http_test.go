package hostutil

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPClient drives the one HTTP client through every rule its two users
// (the cache client, the worker client) rely on. Each row serves requests
// with handler — call is the 1-based count of requests seen — and checks
// what Do returned after how many requests and injected sleeps.
func TestHTTPClient(t *testing.T) {
	throttle := func(hint string, first int, then http.HandlerFunc) func(int, http.ResponseWriter, *http.Request) {
		return func(call int, w http.ResponseWriter, r *http.Request) {
			if call <= first {
				w.Header().Set("Retry-After", hint)
				http.Error(w, "busy", http.StatusTooManyRequests)
				return
			}
			then(w, r)
		}
	}
	hello := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("hello")) }
	every := func(h http.HandlerFunc) func(int, http.ResponseWriter, *http.Request) {
		return func(_ int, w http.ResponseWriter, r *http.Request) { h(w, r) }
	}
	unflushed := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush() // commits the header with no Content-Length
		w.Write([]byte("hello"))
	}
	hangUp := func(call int, w http.ResponseWriter, r *http.Request) {
		if call == 1 {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		hello(w, r)
	}
	slow := func(call int, w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		hello(w, r)
	}
	get := Request{Method: http.MethodGet, Path: "/x", Limit: 16}

	for _, c := range []struct {
		name    string
		handler func(call int, w http.ResponseWriter, r *http.Request)
		req     Request
		policy  Retry
		timeout time.Duration // zero: one second

		wantCalls, wantSleeps int
		wantStatus            int
		wantBody              string
		wantErr               func(error) bool // nil: no error
	}{
		{name: "an answer of any status is returned as it is",
			handler: every(func(w http.ResponseWriter, r *http.Request) { http.Error(w, "gone", http.StatusNotFound) }),
			req:     get, policy: Retry{Attempts: 3, Transport: true},
			wantCalls: 1, wantStatus: http.StatusNotFound, wantBody: "gone\n"},
		{name: "429 is waited out and retried",
			handler: throttle("1", 2, hello), req: get, policy: Retry{Attempts: 4},
			wantCalls: 3, wantSleeps: 2, wantStatus: http.StatusOK, wantBody: "hello"},
		{name: "429 is not retried beyond the policy, and the last hint surfaces",
			handler: throttle("7", 99, hello), req: get, policy: Retry{Attempts: 3},
			wantCalls: 3, wantSleeps: 2, wantStatus: http.StatusTooManyRequests,
			wantErr: func(err error) bool {
				var th *Throttled
				return errors.As(err, &th) && th.After == 7*time.Second
			}},
		{name: "a transport failure is retried when the policy says so",
			handler: hangUp, req: get, policy: Retry{Attempts: 3, Transport: true},
			wantCalls: 2, wantSleeps: 1, wantStatus: http.StatusOK, wantBody: "hello"},
		{name: "and surfaces at once when it does not",
			handler: hangUp, req: get, policy: Retry{Attempts: 3},
			wantCalls: 1, wantErr: func(err error) bool { return err != nil }},
		{name: "a HEAD answer declares a length and carries no body",
			handler: every(func(w http.ResponseWriter, r *http.Request) { w.Header().Set("Content-Length", "12345") }),
			req:     Request{Method: http.MethodHead, Path: "/x", Limit: 16}, policy: Retry{Attempts: 1},
			wantCalls: 1, wantStatus: http.StatusOK},
		{name: "a zero limit reads no body",
			handler: every(hello),
			req:     Request{Method: http.MethodGet, Path: "/x"}, policy: Retry{Attempts: 1},
			wantCalls: 1, wantStatus: http.StatusOK},
		{name: "a declared body over the limit is too large",
			handler: every(hello),
			req:     Request{Method: http.MethodGet, Path: "/x", Limit: 4}, policy: Retry{Attempts: 1},
			wantCalls: 1, wantStatus: http.StatusOK, wantErr: func(err error) bool { return errors.Is(err, ErrTooLarge) }},
		{name: "so is an undeclared one, while one of exactly the limit is not",
			handler: every(unflushed),
			req:     Request{Method: http.MethodGet, Path: "/x", Limit: 5}, policy: Retry{Attempts: 1},
			wantCalls: 1, wantStatus: http.StatusOK, wantBody: "hello"},
		{name: "an undeclared body over the limit is too large",
			handler: every(unflushed),
			req:     Request{Method: http.MethodGet, Path: "/x", Limit: 4}, policy: Retry{Attempts: 1},
			wantCalls: 1, wantStatus: http.StatusOK, wantErr: func(err error) bool { return errors.Is(err, ErrTooLarge) }},
		{name: "an answer Decode refuses is retried like a failed exchange",
			handler: func(call int, w http.ResponseWriter, r *http.Request) { w.Write([]byte(strings.Repeat("x", call))) },
			req: Request{Method: http.MethodGet, Path: "/x", Limit: 16, Decode: func(_ int, body []byte) error {
				if len(body) < 3 {
					return errors.New("cut short")
				}
				return nil
			}},
			policy:    Retry{Attempts: 4, Transport: true},
			wantCalls: 3, wantSleeps: 2, wantStatus: http.StatusOK, wantBody: "xxx"},
		{name: "the timeout bounds a request",
			handler: slow, req: get, policy: Retry{Attempts: 1}, timeout: 50 * time.Millisecond,
			wantCalls: 1, wantErr: func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{name: "and hold extends it",
			handler: slow, req: Request{Method: http.MethodGet, Path: "/x", Limit: 16, Hold: 2 * time.Second},
			policy: Retry{Attempts: 1}, timeout: 50 * time.Millisecond,
			wantCalls: 1, wantStatus: http.StatusOK, wantBody: "hello"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				c.handler(int(calls.Add(1)), w, r)
			}))
			defer srv.Close()
			if c.timeout == 0 {
				c.timeout = time.Second
			}
			// "host:port" is as good an address as a URL.
			client := NewHTTPClient(srv.Listener.Addr().String(), c.timeout)
			sleeps := 0
			client.Sleep = func(time.Duration) { sleeps++ }

			status, body, err := client.Do(context.Background(), c.req, c.policy)
			if c.wantErr == nil && err != nil || c.wantErr != nil && !c.wantErr(err) {
				t.Errorf("err = %v", err)
			}
			if status != c.wantStatus || string(body) != c.wantBody {
				t.Errorf("answer = %d %q, want %d %q", status, body, c.wantStatus, c.wantBody)
			}
			if int(calls.Load()) != c.wantCalls || sleeps != c.wantSleeps {
				t.Errorf("%d requests and %d sleeps, want %d and %d", calls.Load(), sleeps, c.wantCalls, c.wantSleeps)
			}
		})
	}
}

// TestHTTPClientWaitEndsWithContext: the real timer (no injected Sleep) gives
// up a 30-second Retry-After wait the moment the caller's context ends.
func TestHTTPClientWaitEndsWithContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	begin := time.Now()
	_, _, err := NewHTTPClient(srv.URL, time.Second).Do(ctx, Request{Method: http.MethodGet, Path: "/x"}, Retry{Attempts: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the wait slept through the Retry-After hint", elapsed)
	}
}
