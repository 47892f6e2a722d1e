package launcher

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/hostutil"
)

// fakeJob describes an injectable fault point: how a job misbehaves before
// (or instead of) succeeding.
type fakeJob struct {
	name      string
	failures  int    // fail the first N attempts with a transient error
	permanent bool   // fail every attempt with a Permanent error
	hang      bool   // block until the attempt context is cancelled
	cycles    uint64 // reported on success
}

func (f fakeJob) job() Job {
	return Job{Name: f.name, Run: func(ctx context.Context, attempt int) (Metrics, error) {
		switch {
		case f.hang:
			<-ctx.Done()
			return Metrics{}, ctx.Err()
		case f.permanent:
			return Metrics{}, Permanent(errors.New("bad artifact"))
		case attempt <= f.failures:
			return Metrics{}, fmt.Errorf("transient fault on attempt %d", attempt)
		}
		return Metrics{ExitCode: 0, Cycles: f.cycles}, nil
	}}
}

// recordingSleep replaces real backoff delays with a log of what would
// have been slept — retry tests finish in microseconds.
type recordingSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordingSleep) sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	return ctx.Err()
}

func TestLauncherTable(t *testing.T) {
	cases := []struct {
		name         string
		jobs         []fakeJob
		opts         Options
		wantStatus   []Status
		wantAttempts []int
		wantBackoffs []time.Duration
		wantErr      bool
	}{
		{
			name:         "all succeed",
			jobs:         []fakeJob{{name: "a", cycles: 10}, {name: "b", cycles: 20}, {name: "c", cycles: 30}},
			opts:         Options{Workers: 2},
			wantStatus:   []Status{StatusOK, StatusOK, StatusOK},
			wantAttempts: []int{1, 1, 1},
		},
		{
			name:         "one fails, siblings complete",
			jobs:         []fakeJob{{name: "a", cycles: 10}, {name: "bad", permanent: true}, {name: "c", cycles: 30}},
			opts:         Options{Workers: 3},
			wantStatus:   []Status{StatusOK, StatusFailed, StatusOK},
			wantAttempts: []int{1, 1, 1},
			wantErr:      true,
		},
		{
			name:         "transient failure retried with backoff, then succeeds",
			jobs:         []fakeJob{{name: "flaky", failures: 2, cycles: 10}},
			opts:         Options{Workers: 1, Retries: 3},
			wantStatus:   []Status{StatusOK},
			wantAttempts: []int{3},
			wantBackoffs: []time.Duration{retryBackoff, 2 * retryBackoff},
		},
		{
			name:         "retries exhausted",
			jobs:         []fakeJob{{name: "hopeless", failures: 99}},
			opts:         Options{Workers: 1, Retries: 2},
			wantStatus:   []Status{StatusFailed},
			wantAttempts: []int{3},
			wantBackoffs: []time.Duration{retryBackoff, 2 * retryBackoff},
			wantErr:      true,
		},
		{
			name:         "permanent error is not retried",
			jobs:         []fakeJob{{name: "perm", permanent: true}},
			opts:         Options{Workers: 1, Retries: 5},
			wantStatus:   []Status{StatusFailed},
			wantAttempts: []int{1},
			wantErr:      true,
		},
		{
			name: "hung job killed at timeout without stalling siblings",
			jobs: []fakeJob{{name: "hung", hang: true}, {name: "b", cycles: 20}, {name: "c", cycles: 30}},
			opts: Options{Workers: 3, Timeout: 20 * time.Millisecond, Retries: 3},
			// Timeouts are terminal: no retry even with Retries set.
			wantStatus:   []Status{StatusTimeout, StatusOK, StatusOK},
			wantAttempts: []int{1, 1, 1},
			wantErr:      true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingSleep{}
			tc.opts.Sleep = rec.sleep
			jobs := make([]Job, len(tc.jobs))
			for i, f := range tc.jobs {
				jobs[i] = f.job()
			}
			start := time.Now()
			sum := New(tc.opts).Run(context.Background(), jobs)
			if wall := time.Since(start); wall > 5*time.Second {
				t.Fatalf("run took %s; launcher stalled", wall)
			}
			if len(sum.Jobs) != len(tc.jobs) {
				t.Fatalf("got %d results, want %d", len(sum.Jobs), len(tc.jobs))
			}
			for i, r := range sum.Jobs {
				if r.Name != tc.jobs[i].name {
					t.Errorf("result %d: name %q, want %q (order must match declaration)", i, r.Name, tc.jobs[i].name)
				}
				if r.Status != tc.wantStatus[i] {
					t.Errorf("job %s: status %q (err %q), want %q", r.Name, r.Status, r.Err, tc.wantStatus[i])
				}
				if r.Attempts != tc.wantAttempts[i] {
					t.Errorf("job %s: attempts %d, want %d", r.Name, r.Attempts, tc.wantAttempts[i])
				}
				if r.Status == StatusOK && r.Metrics.Cycles != tc.jobs[i].cycles {
					t.Errorf("job %s: cycles %d, want %d", r.Name, r.Metrics.Cycles, tc.jobs[i].cycles)
				}
			}
			if tc.wantBackoffs != nil {
				rec.mu.Lock()
				got := append([]time.Duration(nil), rec.delays...)
				rec.mu.Unlock()
				// wantBackoffs holds the pure exponential schedule; the
				// launcher adds deterministic per-job jitter on top, so the
				// expected delays are reconstructed with the same hash. The
				// backoff cases are single-job, so jobs[0] names the job.
				want := make([]time.Duration, len(tc.wantBackoffs))
				for i, pure := range tc.wantBackoffs {
					want[i] = pure + hostutil.DetJitter(tc.jobs[0].name, i+1, pure/4)
					if want[i] < pure || want[i] >= pure+pure/4+1 {
						t.Errorf("attempt %d: jittered delay %v outside [%v, %v)", i+1, want[i], pure, pure+pure/4)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("backoffs %v, want %v", got, want)
				}
			}
			if err := sum.Err(); (err != nil) != tc.wantErr {
				t.Errorf("summary err = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

// TestCancellationMidFlight covers the second-Ctrl-C path: cancelling the
// run context kills in-flight jobs and marks queued jobs cancelled.
func TestCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan string, 2)
	blocking := func(name string) Job {
		return Job{Name: name, Run: func(ctx context.Context, attempt int) (Metrics, error) {
			started <- name
			<-ctx.Done()
			return Metrics{}, ctx.Err()
		}}
	}
	jobs := []Job{blocking("a"), blocking("b"), blocking("c"), blocking("d")}

	done := make(chan *Summary, 1)
	go func() { done <- New(Options{Workers: 2}).Run(ctx, jobs) }()

	// Wait until two jobs are genuinely in flight, then kill.
	<-started
	<-started
	cancel()

	sum := <-done
	for _, r := range sum.Jobs {
		if r.Status != StatusCancelled {
			t.Errorf("job %s: status %q, want cancelled", r.Name, r.Status)
		}
	}
	if sum.Err() == nil {
		t.Error("cancelled run must report an error")
	}
}

// TestDrainFinishesInFlight covers the first-Ctrl-C path: draining lets
// the running job finish normally and skips everything still queued.
func TestDrainFinishesInFlight(t *testing.T) {
	drain := make(chan struct{})
	l := New(Options{Workers: 1, Drain: drain})
	jobs := []Job{
		{Name: "a", Run: func(ctx context.Context, attempt int) (Metrics, error) {
			close(drain) // the Ctrl-C arrives while a runs
			return Metrics{Cycles: 1}, nil
		}},
		{Name: "b", Run: func(ctx context.Context, attempt int) (Metrics, error) {
			return Metrics{Cycles: 2}, nil
		}},
		{Name: "c", Run: func(ctx context.Context, attempt int) (Metrics, error) {
			return Metrics{Cycles: 3}, nil
		}},
	}
	sum := l.Run(context.Background(), jobs)
	want := []Status{StatusOK, StatusSkipped, StatusSkipped}
	for i, r := range sum.Jobs {
		if r.Status != want[i] {
			t.Errorf("job %s: status %q, want %q", r.Name, r.Status, want[i])
		}
	}
}

// TestParallelSpeedup is the Fig. 6 claim in miniature: on a workload of
// simulated-latency jobs, -j 4 must beat -j 1 by more than 2x wall-clock.
func TestParallelSpeedup(t *testing.T) {
	const perJob = 25 * time.Millisecond
	mkJobs := func() []Job {
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = Job{Name: fmt.Sprintf("job%02d", i), Run: func(ctx context.Context, attempt int) (Metrics, error) {
				select {
				case <-time.After(perJob):
					return Metrics{Cycles: 1000}, nil
				case <-ctx.Done():
					return Metrics{}, ctx.Err()
				}
			}}
		}
		return jobs
	}

	seq := New(Options{Workers: 1}).Run(context.Background(), mkJobs())
	par := New(Options{Workers: 4}).Run(context.Background(), mkJobs())
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if err := par.Err(); err != nil {
		t.Fatal(err)
	}
	if par.Wall*2 >= seq.Wall {
		t.Errorf("workers=4 wall %s vs workers=1 wall %s: want >2x speedup", par.Wall, seq.Wall)
	}
	// Per-job wall-clock must be recorded on the result the caller sees
	// (it once was stamped only on a dead local copy).
	for _, r := range par.Jobs {
		if r.Wall < perJob {
			t.Errorf("job %s wall = %s, want >= %s", r.Name, r.Wall, perJob)
		}
	}
}

// TestManifestDeterministic runs jobs whose completion order scrambles
// (staggered latencies under 4 workers) and checks the manifest still
// lists records in declaration order with identical deterministic fields
// across runs.
func TestManifestDeterministic(t *testing.T) {
	mkJobs := func() []Job {
		delays := []time.Duration{8, 1, 5, 2} // milliseconds; completion order != declaration order
		jobs := make([]Job, len(delays))
		for i, d := range delays {
			d := d * time.Millisecond
			cycles := uint64(100 * (i + 1))
			jobs[i] = Job{Name: fmt.Sprintf("job%02d", i), Run: func(ctx context.Context, attempt int) (Metrics, error) {
				time.Sleep(d)
				return Metrics{ExitCode: 0, Cycles: cycles}, nil
			}}
		}
		return jobs
	}
	stable := func(s *Summary) []string {
		var out []string
		for _, rec := range s.Records() {
			out = append(out, fmt.Sprintf("%s|%s|%d|%d|%d", rec.Job, rec.Status, rec.Attempts, rec.Exit, rec.Cycles))
		}
		return out
	}
	a := New(Options{Workers: 4}).Run(context.Background(), mkJobs())
	b := New(Options{Workers: 4}).Run(context.Background(), mkJobs())
	sa, sb := stable(a), stable(b)
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Errorf("manifests differ:\n%v\n%v", sa, sb)
	}
	if want := "job00|ok|1|0|100"; sa[0] != want {
		t.Errorf("first record %q, want %q", sa[0], want)
	}

	// Each line must be valid JSON with the job field first.
	for _, line := range strings.Split(strings.TrimSpace(string(EncodeManifest(a))), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad manifest line %q: %v", line, err)
		}
		if !strings.HasPrefix(line, `{"job":`) {
			t.Errorf("manifest line does not lead with job field: %q", line)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := &Summary{
		Jobs: []Result{
			{Name: "job00", Status: StatusOK, Attempts: 1, Metrics: Metrics{Cycles: 12345}, Wall: 10 * time.Millisecond},
			{Name: "job01", Status: StatusTimeout, Attempts: 1, Err: "killed", Wall: 20 * time.Millisecond},
		},
		Workers: 2,
		Wall:    21 * time.Millisecond,
	}
	tbl := FormatTable(s)
	for _, want := range []string{"job00", "job01", "timeout", "sim-MIPS", "1 ok, 1 timeout", "workers=2"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestPermanentWrapping(t *testing.T) {
	base := errors.New("boom")
	if !IsPermanent(Permanent(base)) {
		t.Error("Permanent(err) not detected")
	}
	if !IsPermanent(fmt.Errorf("context: %w", Permanent(base))) {
		t.Error("wrapped Permanent not detected")
	}
	if IsPermanent(base) {
		t.Error("plain error misdetected as permanent")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) must be nil")
	}
	if !errors.Is(Permanent(base), base) {
		t.Error("Permanent must unwrap to the original error")
	}
}

// The retry backoff must jitter deterministically: the same (job,
// attempt) always sleeps the same amount (bit-reproducible schedules),
// distinct jobs spread out (no thundering herd), and the jitter stays
// within a quarter of the pure exponential delay.
func TestBackoffDeterministicJitter(t *testing.T) {
	l := New(Options{})
	pure := retryBackoff
	if a, b := l.backoff("job-a", 1), l.backoff("job-a", 1); a != b {
		t.Fatalf("same job+attempt jittered differently: %v vs %v", a, b)
	}
	distinct := map[time.Duration]bool{}
	for _, name := range []string{"job00", "job01", "job02", "job03", "job04", "job05", "job06", "job07"} {
		d := l.backoff(name, 1)
		if d < pure || d >= pure+pure/4+1 {
			t.Errorf("job %s: delay %v outside [%v, %v)", name, d, pure, pure+pure/4)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Error("all jobs share one backoff delay; herd not spread")
	}
	if a1, a2 := l.backoff("job-a", 1), l.backoff("job-a", 2); a2 < 2*pure || a2 == 2*a1 && a1 != pure {
		t.Errorf("attempt 2 delay %v not doubled from %v", a2, a1)
	}
}
