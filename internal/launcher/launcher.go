// Package launcher schedules the jobs of a multi-job workload across a
// bounded pool of concurrent simulations — the optimization behind Case
// Study B, where running the 10 SPEC2017 intspeed jobs as parallel
// simulations "reduced the runtime for our experiment from about two weeks
// to roughly two days" (§IV-B).
//
// The scheduler is fault tolerant: every job gets its own context (with a
// configurable per-job timeout), transiently-failing jobs are re-attempted
// a bounded number of times with exponential backoff, and one job's
// failure never prevents its siblings from completing. Cancellation is
// two-stage, matching the CLI's Ctrl-C semantics: draining stops new jobs
// from starting while in-flight jobs run to completion, and cancelling the
// context kills in-flight jobs too (cooperatively — simulations poll their
// machine's Stop channel).
//
// Results aggregate into a deterministic per-job summary: jobs appear in
// declaration order regardless of completion order, so the JSONL run
// manifest (manifest.go) diffs cleanly across runs.
package launcher

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// Metrics is what a completed job reports for the run manifest.
type Metrics struct {
	// ExitCode is the guest's exit status.
	ExitCode int64
	// Cycles is the job's simulated guest time.
	Cycles uint64
	// Instrs is the retired-instruction count (0 when the simulator only
	// reports cycles; functional simulation retires one per cycle).
	Instrs uint64
}

// Job is one schedulable unit: a named closure running one simulation
// attempt. Run must return promptly once ctx is cancelled — simulations
// satisfy this by wiring ctx.Done() into the machine's Stop channel — or
// the final summary is delayed until it does.
type Job struct {
	Name string
	Run  func(ctx context.Context, attempt int) (Metrics, error)
	// Prior is the attempt count carried over from an interrupted run
	// this run is resuming (0 for fresh jobs); it rides into the Result
	// so manifests show total attempts across the interruption.
	Prior int
	// Resumed marks a job restored from a checkpoint by `-resume`.
	Resumed bool
}

// Status classifies a job's outcome.
type Status string

const (
	// StatusOK marks a job whose final attempt succeeded.
	StatusOK Status = "ok"
	// StatusFailed marks a job whose attempts are exhausted (or whose
	// error was marked Permanent).
	StatusFailed Status = "failed"
	// StatusTimeout marks a job killed at its per-job timeout. Timeouts
	// are not retried: a deterministic simulation that hung once would
	// only hang again.
	StatusTimeout Status = "timeout"
	// StatusCancelled marks a job killed (or never started) because the
	// run context was cancelled — the second-Ctrl-C path.
	StatusCancelled Status = "cancelled"
	// StatusSkipped marks a job never started because the launcher was
	// drained — the first-Ctrl-C path: in-flight jobs finish, queued jobs
	// are skipped.
	StatusSkipped Status = "skipped"
)

// Result reports one job's outcome.
type Result struct {
	Name     string
	Status   Status
	Attempts int
	// Prior is the attempt count carried over from the interrupted run
	// this run resumed (0 for fresh jobs).
	Prior int
	// Resumed marks a job whose outcome was carried over from a prior
	// run, or which was restored from a checkpoint, by `-resume`.
	Resumed bool
	// Err holds the final attempt's error text ("" on success).
	Err     string
	Metrics Metrics
	// Wall is the job's host wall-clock time across all attempts.
	Wall time.Duration
	// QueueWait is how long the job sat in the worker queue before its
	// first attempt started (zero for carried and never-started jobs).
	QueueWait time.Duration
	// Carried, when set, is the verbatim manifest record of a prior run
	// this result was carried from. record() re-emits it unchanged, so
	// resuming a resumed run keeps manifest records byte-identical instead
	// of re-deriving (and drifting) wall_ms and sim_mips each cycle.
	Carried *Record
}

// SimMIPS is the job's simulation throughput: millions of simulated
// instructions per host second (cycles stand in for instructions when the
// simulator reports only cycles, as functional simulation retires one
// instruction per cycle).
func (r *Result) SimMIPS() float64 {
	if r.Carried != nil {
		// A carried result reports exactly what the prior run recorded;
		// recomputing from the round-tripped Wall would drift.
		return r.Carried.SimMIPS
	}
	n := r.Metrics.Instrs
	if n == 0 {
		n = r.Metrics.Cycles
	}
	secs := r.Wall.Seconds()
	if n == 0 || secs <= 0 {
		return 0
	}
	return float64(n) / secs / 1e6
}

// Options configures a Launcher.
type Options struct {
	// Workers caps how many jobs simulate concurrently. <=0 means
	// GOMAXPROCS (the `marshal launch -j N` default).
	Workers int
	// Timeout bounds each job attempt's host wall-clock time (0 = none).
	Timeout time.Duration
	// Retries is how many times a transiently-failing job is re-attempted
	// after its first failure (total attempts = Retries+1). Errors marked
	// Permanent and timeouts are not retried.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// subsequent retry, capped at 30s. Default 250ms.
	Backoff time.Duration
	// Drain, when closed, stops new jobs from starting (in-flight jobs
	// finish) — equivalent to calling Drain().
	Drain <-chan struct{}
	// Journal, when set, receives a fsynced start record as each attempt
	// begins and a done record as each job reaches a terminal status, so
	// a crashed run can be reconstructed (and resumed) from disk.
	Journal *Journal
	// Log receives per-job progress messages.
	Log io.Writer
	// Obs is the registry launcher counters (attempts, retries, timeouts)
	// and the queue-wait histogram report into; nil resolves to the
	// process-wide obs.Default.
	Obs *obs.Registry
	// Span, when set, parents one child span per job (run → job →
	// attempt) in the run trace; nil disables tracing.
	Span *obs.Span
	// Sleep is the backoff sleeper — injectable so retry tests need no
	// real delays. The default sleeps on a timer, aborting early (with
	// the context's error) on cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Launcher runs job sets through a worker pool.
type Launcher struct {
	opts      Options
	drain     chan struct{}
	drainOnce sync.Once
	// stragglers tracks attempt goroutines abandoned at a timeout or
	// cancellation; Run joins them before returning so no attempt can
	// touch caller state after the summary is read.
	stragglers sync.WaitGroup
}

// New creates a Launcher.
func New(opts Options) *Launcher {
	if opts.Backoff <= 0 {
		opts.Backoff = 250 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if opts.Sleep == nil {
		opts.Sleep = hostutil.SleepCtx
	}
	return &Launcher{opts: opts, drain: make(chan struct{})}
}

// Drain stops new jobs from starting; in-flight jobs run to completion.
// Safe to call from any goroutine, any number of times.
func (l *Launcher) Drain() {
	l.drainOnce.Do(func() { close(l.drain) })
}

func (l *Launcher) draining() bool {
	select {
	case <-l.drain:
		return true
	default:
	}
	if l.opts.Drain == nil {
		return false
	}
	select {
	case <-l.opts.Drain:
		return true
	default:
		return false
	}
}

// Summary aggregates a completed run. Jobs appear in the order they were
// passed to Run, regardless of completion order.
type Summary struct {
	Jobs []Result
	// Wall is the end-to-end host wall-clock time of the run.
	Wall time.Duration
	// Workers is the concurrency the run actually used.
	Workers int
}

// Err returns nil when every job succeeded, otherwise an aggregate error
// naming each job that did not.
func (s *Summary) Err() error {
	var bad []string
	for _, r := range s.Jobs {
		if r.Status != StatusOK {
			bad = append(bad, fmt.Sprintf("%s (%s)", r.Name, r.Status))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("launcher: %d/%d jobs did not succeed: %s", len(bad), len(s.Jobs), strings.Join(bad, ", "))
}

// Counts tallies results by status in a fixed order for log lines.
func (s *Summary) Counts() string {
	n := map[Status]int{}
	for _, r := range s.Jobs {
		n[r.Status]++
	}
	parts := []string{fmt.Sprintf("%d ok", n[StatusOK])}
	for _, st := range []Status{StatusFailed, StatusTimeout, StatusCancelled, StatusSkipped} {
		if n[st] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n[st], st))
		}
	}
	return strings.Join(parts, ", ")
}

// Run fans the jobs out across the worker pool and blocks until every job
// reaches a terminal status. It never returns early on failure — sibling
// jobs always get their chance — and it never returns an error itself;
// per-job outcomes (and Summary.Err) carry the failures.
func (l *Launcher) Run(ctx context.Context, jobs []Job) *Summary {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := l.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	start := time.Now()
	results := make([]Result, len(jobs))
	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				job := jobs[i]
				// Every queued job gets a span — even skipped and
				// cancelled ones — so trace job counts always match the
				// manifest. Job paths are unique ("job:<name>"), so span
				// ordering is deterministic despite worker interleaving.
				span := l.opts.Span.Child("job:" + job.Name)
				switch {
				case ctx.Err() != nil:
					results[i] = Result{Name: job.Name, Status: StatusCancelled, Err: ctx.Err().Error()}
				case l.draining():
					results[i] = Result{Name: job.Name, Status: StatusSkipped, Err: "drained before start"}
				default:
					results[i] = l.runOne(ctx, job, span, time.Since(start))
				}
				r := &results[i]
				r.Prior, r.Resumed = job.Prior, job.Resumed || job.Prior > 0
				span.Attr("status", string(r.Status))
				span.Attr("attempts", strconv.Itoa(r.Attempts))
				span.End()
				if err := l.opts.Journal.Done(r.record()); err != nil {
					l.logf("job %s: journal write failed: %v", r.Name, err)
				}
				l.logf("job %-24s %s (attempts=%d wall=%s)", r.Name, r.Status, r.Attempts, r.Wall.Round(time.Millisecond))
			}
		}()
	}
	wg.Wait()
	// Join abandoned attempts (see Launcher.stragglers) so nothing runs
	// past the summary.
	l.stragglers.Wait()
	return &Summary{Jobs: results, Wall: time.Since(start), Workers: workers}
}

// runOne drives a single job through its attempts. The result is named so
// the deferred Wall stamp applies to what the caller actually receives.
func (l *Launcher) runOne(ctx context.Context, job Job, span *obs.Span, wait time.Duration) (res Result) {
	res = Result{Name: job.Name, QueueWait: wait}
	l.opts.Obs.Histogram("launcher_queue_wait_us").Observe(uint64(wait.Microseconds()))
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()

	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		l.opts.Obs.Counter("launcher_attempts_total").Inc()
		if attempt > 1 {
			l.opts.Obs.Counter("launcher_retries_total").Inc()
		}
		if err := l.opts.Journal.Start(job.Name, job.Prior+attempt); err != nil {
			l.logf("job %s: journal write failed: %v", job.Name, err)
		}
		attemptCtx := ctx
		cancel := context.CancelFunc(func() {})
		if l.opts.Timeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, l.opts.Timeout)
		}
		attSpan := span.Child("attempt")
		met, err := l.runAttempt(obs.ContextWithSpan(attemptCtx, attSpan), job, attempt)
		timedOut := attemptCtx.Err() == context.DeadlineExceeded
		cancel()
		attSpan.End()

		if err == nil {
			res.Status, res.Metrics = StatusOK, met
			return res
		}
		switch {
		case ctx.Err() != nil:
			res.Status, res.Err = StatusCancelled, err.Error()
			return res
		case timedOut:
			l.opts.Obs.Counter("launcher_timeouts_total").Inc()
			res.Status = StatusTimeout
			res.Err = fmt.Sprintf("killed at per-job timeout %s: %v", l.opts.Timeout, err)
			return res
		case IsPermanent(err) || attempt > l.opts.Retries:
			res.Status, res.Err = StatusFailed, err.Error()
			return res
		}
		delay := l.backoff(job.Name, attempt)
		l.logf("job %s attempt %d failed (%v); retrying in %s", job.Name, attempt, err, delay)
		if serr := l.opts.Sleep(ctx, delay); serr != nil {
			res.Status, res.Err = StatusCancelled, err.Error()
			return res
		}
	}
}

// runAttempt runs the job body in its own goroutine so a hung simulation
// cannot stall the worker past the attempt's deadline: on expiry the
// worker moves on and the attempt is left to unwind cooperatively (the
// simulation observes its Stop channel); Run joins it before returning.
func (l *Launcher) runAttempt(ctx context.Context, job Job, attempt int) (Metrics, error) {
	type outcome struct {
		met Metrics
		err error
	}
	ch := make(chan outcome, 1)
	l.stragglers.Add(1)
	go func() {
		defer l.stragglers.Done()
		met, err := job.Run(ctx, attempt)
		ch <- outcome{met, err}
	}()
	select {
	case out := <-ch:
		return out.met, out.err
	case <-ctx.Done():
		return Metrics{}, ctx.Err()
	}
}

// backoff returns the delay before the retry following `attempt`:
// Backoff * 2^(attempt-1), capped at 30s, plus up to 25% deterministic
// per-job jitter. The jitter is hashed from (job name, attempt) — no
// wall clock, no RNG — so N jobs that fail together retry spread out
// instead of as a thundering herd at `-j N`, while any given run's
// retry schedule stays bit-reproducible.
func (l *Launcher) backoff(job string, attempt int) time.Duration {
	d := l.opts.Backoff
	for i := 1; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d + hostutil.DetJitter(job, attempt, d/4)
}

func (l *Launcher) logf(format string, args ...any) {
	fmt.Fprintf(l.opts.Log, format+"\n", args...)
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so the launcher fails the job immediately instead
// of retrying — for configuration and artifact errors that no retry can
// fix. A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// TwoStageInterrupt wires Ctrl-C to a launch the way the CLIs expose it:
// the first interrupt closes drain (in-flight jobs finish, queued jobs are
// skipped), the second cancels ctx (in-flight jobs are killed too). stop
// cancels ctx as well, which releases the signal handler.
func TwoStageInterrupt(prog string) (ctx context.Context, drain <-chan struct{}, stop context.CancelFunc) {
	ctx, stop = context.WithCancel(context.Background())
	draining := make(chan struct{})
	sigc := make(chan os.Signal, 2) // one slot per stage: neither interrupt is dropped
	signal.Notify(sigc, os.Interrupt)
	go func() {
		defer signal.Stop(sigc)
		select {
		case <-sigc:
		case <-ctx.Done():
			return
		}
		fmt.Fprintf(os.Stderr, "\n%s: interrupt — draining (in-flight jobs finish; interrupt again to kill)\n", prog)
		close(draining)
		select {
		case <-sigc:
		case <-ctx.Done():
			return
		}
		fmt.Fprintf(os.Stderr, "%s: second interrupt — killing in-flight jobs\n", prog)
		stop()
	}()
	return ctx, draining, stop
}
