package hostutil

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Throttled is the error an operation returns (bare or wrapped) when the
// server answered 429: After is its Retry-After hint. Retry waits the hint
// out before the next attempt; a caller that exhausts its budget finds the
// last hint here.
type Throttled struct{ After time.Duration }

func (e *Throttled) Error() string {
	return fmt.Sprintf("throttled (retry after %s)", e.After)
}

// RetryAfter parses a 429's Retry-After header (integer seconds only; HTTP
// dates are overkill for our own servers). A missing or malformed hint
// means one second; a "0" hint still yields briefly.
func RetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs < 0 {
		return time.Second
	}
	if d := time.Duration(secs) * time.Second; d >= 10*time.Millisecond {
		return d
	}
	return 10 * time.Millisecond
}

// Retry is the one retry policy of every network client in the tree: a
// bounded number of attempts, a Retry-After-aware wait after a Throttled
// answer, a short wait after any other failure the caller allows retrying,
// deterministic jitter on both (hashed from the call's key and the attempt,
// so schedules are reproducible and de-correlated across jobs), and waits
// that end the moment the context does.
type Retry struct {
	// Attempts is the total number of calls (first try included).
	Attempts int
	// Transport allows retrying errors other than Throttled. Leave it
	// false for a request that must never be blindly re-sent (a steal whose
	// answer was lost may have succeeded), or when a layer above — the
	// cache's circuit breaker — owns transport failures.
	Transport bool
	// Sleep, when set, replaces the real timer (tests).
	Sleep func(time.Duration)
}

// Do calls op until it succeeds, fails with an error the policy does not
// retry, or the attempts run out; it returns op's last error. A context
// that ends during a wait ends the call with the context's error.
func (r Retry) Do(ctx context.Context, key string, op func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		var wait time.Duration
		var th *Throttled
		switch {
		case errors.As(err, &th):
			wait = th.After + DetJitter(key, attempt, 25*time.Millisecond)
		case r.Transport:
			wait = 5*time.Millisecond + DetJitter(key, attempt, 20*time.Millisecond)
		default:
			return err
		}
		if attempt+1 >= r.Attempts {
			return err
		}
		if r.Sleep != nil {
			r.Sleep(wait)
		} else {
			SleepCtx(ctx, wait)
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w (last error: %v)", cerr, err)
		}
	}
}

// SleepCtx waits out d, or returns the context's error the moment it ends.
func SleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
