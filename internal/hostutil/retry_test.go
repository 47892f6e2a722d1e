package hostutil

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestRetryAfterParsing(t *testing.T) {
	for hint, want := range map[string]time.Duration{
		"7":    7 * time.Second,
		" 2 ":  2 * time.Second,
		"0":    10 * time.Millisecond,
		"":     time.Second,
		"-3":   time.Second,
		"soon": time.Second,
	} {
		h := http.Header{}
		if hint != "" {
			h.Set("Retry-After", hint)
		}
		if got := RetryAfter(h); got != want {
			t.Errorf("RetryAfter(%q) = %v, want %v", hint, got, want)
		}
	}
}

// TestRetryPolicy pins what Do retries: a Throttled answer always (waiting
// at least the hint), any other error only with Transport set, and never
// past Attempts.
func TestRetryPolicy(t *testing.T) {
	boom := errors.New("boom")
	throttled := fmt.Errorf("wrapped: %w", &Throttled{After: 3 * time.Second})
	cases := []struct {
		name      string
		policy    Retry
		errs      []error // op's answers, in order; past the end it succeeds
		wantCalls int
		wantErr   error
	}{
		{"first try wins", Retry{Attempts: 3}, nil, 1, nil},
		{"throttle retried without Transport", Retry{Attempts: 3}, []error{throttled}, 2, nil},
		{"transport error surfaces without Transport", Retry{Attempts: 3}, []error{boom}, 1, boom},
		{"transport error retried with Transport", Retry{Attempts: 3, Transport: true}, []error{boom, boom}, 3, nil},
		{"attempts bound the calls", Retry{Attempts: 3, Transport: true}, []error{boom, boom, boom, boom}, 3, boom},
		{"exhausted throttle returns the hint", Retry{Attempts: 2}, []error{throttled, throttled}, 2, throttled},
	}
	for _, tc := range cases {
		var slept []time.Duration
		tc.policy.Sleep = func(d time.Duration) { slept = append(slept, d) }
		calls := 0
		err := tc.policy.Do(context.Background(), "key", func() error {
			calls++
			if calls <= len(tc.errs) {
				return tc.errs[calls-1]
			}
			return nil
		})
		if calls != tc.wantCalls || !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: %d calls, err %v; want %d calls, err %v", tc.name, calls, err, tc.wantCalls, tc.wantErr)
		}
		if len(slept) != calls-1 {
			t.Errorf("%s: %d waits for %d calls", tc.name, len(slept), calls)
		}
		for i, d := range slept {
			if errors.Is(tc.errs[i], throttled) && d < 3*time.Second {
				t.Errorf("%s: wait %d = %v, below the 3s hint", tc.name, i, d)
			}
		}
	}
}

// TestRetryWaitEndsWithContext: a 30-second hint must not outlive the
// caller's context — on the real timer, through the one helper every
// client uses.
func TestRetryWaitEndsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	begin := time.Now()
	calls := 0
	err := Retry{Attempts: 4}.Do(ctx, "key", func() error {
		calls++
		return &Throttled{After: 30 * time.Second}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("op ran %d times against a cancelled context", calls)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the wait slept through the hint", elapsed)
	}
}
