package remote

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// WorkerConfig parameterizes a worker daemon.
type WorkerConfig struct {
	// Runner executes leased jobs (ArtifactRunner in production).
	Runner Runner
	// Slots caps concurrent simulations (default 1). Leases beyond it
	// queue — the queued window is what work-stealing harvests.
	Slots int
	// Timeout/Retries are per-attempt defaults applied when a lease
	// doesn't carry its own.
	Timeout time.Duration
	Retries int
	// Obs is the registry remote_worker_* metrics report into.
	Obs *obs.Registry
	// Log receives progress messages.
	Log io.Writer
}

// wjob is one lease's worker-side state.
type wjob struct {
	spec   JobSpec
	state  JobState
	stolen bool
	out    *RunOutput // last successful attempt's output
	// The line for slots: ahead closes once the lease accepted before this
	// one has taken a slot (or given up), turn once this one has.
	ahead, turn chan struct{}
}

// Worker executes leased jobs and serves the fleet protocol over HTTP:
//
//	GET    /v1/status            registration probe / load
//	POST   /v1/jobs              lease jobs (body: []JobSpec; answer: one status per spec)
//	GET    /v1/events?since=N    the event log from sequence N; with &wait=<ms>
//	                             held until there is such an event or wait elapses
//	DELETE /v1/jobs/{name}       steal a still-queued job (409 otherwise)
//
// Each lease runs through its own single-worker launcher pool — reusing
// the existing retry/timeout/backoff machinery — under a slots semaphore
// bounding real concurrency; queued leases take slots in the order they
// were accepted. Every externally observable fact (attempt
// starts, replicated checkpoints, terminal records) lands in one
// worker-global event log the coordinator drains with a single cursor.
type Worker struct {
	cfg   WorkerConfig
	mux   *http.ServeMux
	slots chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*wjob
	events  []Event
	changed chan struct{} // closed and replaced by every emit: wakes held polls
	tail    chan struct{} // the newest lease's turn: the end of the line for slots
}

// NewWorker creates a worker daemon. Close must be called to stop it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.Slots),
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*wjob{},

		changed: make(chan struct{}),
		tail:    make(chan struct{}),
	}
	close(w.tail) // nobody is ahead of the first lease
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("/v1/status", w.handleStatus)
	w.mux.HandleFunc("/v1/jobs", w.handleLease)
	w.mux.HandleFunc("/v1/jobs/", w.handleJob)
	w.mux.HandleFunc("/v1/events", w.handleEvents)
	return w
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

// Close cancels every in-flight job and waits for their goroutines, so
// no simulation (or its -race-visible state) outlives the worker.
func (w *Worker) Close() {
	w.cancel()
	w.wg.Wait()
}

func (w *Worker) logf(format string, args ...any) {
	fmt.Fprintf(w.cfg.Log, format+"\n", args...)
}

// emit appends one event to the worker-global log, stamping its sequence.
func (w *Worker) emit(ev Event) {
	w.mu.Lock()
	ev.Seq = len(w.events)
	w.events = append(w.events, ev)
	close(w.changed)
	w.changed = make(chan struct{})
	w.mu.Unlock()
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.mu.Lock()
	st := WorkerStatus{Slots: w.cfg.Slots, Jobs: map[string]JobState{}, Seq: len(w.events)}
	for name, j := range w.jobs {
		st.Jobs[name] = j.state
	}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(&st)
}

// handleLease answers an array of specs with one status per spec, in order:
// 202 accepted, 409 already held (not terminal), 503 shutting down, 400
// nameless. Accepted leases take slots in array order.
func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var specs []JobSpec
	if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
		http.Error(rw, "malformed lease body", http.StatusBadRequest)
		return
	}
	codes := make([]int, len(specs))
	for i, spec := range specs {
		codes[i] = w.lease(spec)
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(codes)
}

func (w *Worker) lease(spec JobSpec) int {
	if spec.Name == "" {
		return http.StatusBadRequest
	}
	if w.ctx.Err() != nil {
		// A draining worker must refuse with a retryable status, not 409:
		// 409 means "I already hold that lease", and a coordinator
		// re-leasing a job this worker just forfeited must look elsewhere.
		return http.StatusServiceUnavailable
	}
	w.mu.Lock()
	if old, exists := w.jobs[spec.Name]; exists && old.state != JobDone {
		w.mu.Unlock()
		return http.StatusConflict
	}
	// A terminal entry is re-leasable: the coordinator arbitrates leases,
	// and re-running is deterministic, so a re-lease (hedge, post-forfeit
	// retry) just computes the same record again.
	j := &wjob{spec: spec, state: JobQueued, ahead: w.tail, turn: make(chan struct{})}
	w.tail = j.turn
	w.jobs[spec.Name] = j
	w.mu.Unlock()
	w.cfg.Obs.Counter("remote_worker_leases_total").Inc()
	w.logf("worker: leased job %s (sim=%s)", spec.Name, spec.Sim)

	w.wg.Add(1)
	go w.runLease(j)
	return http.StatusAccepted
}

// handleJob routes /v1/jobs/{name}: DELETE is the steal protocol.
func (w *Worker) handleJob(rw http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if r.Method != http.MethodDelete {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[name]
	if !ok {
		http.Error(rw, "unknown job", http.StatusNotFound)
		return
	}
	// Only a job that has not started may leave: the owning worker is the
	// arbiter, so a steal can never race a running simulation into
	// duplicate execution.
	if j.state != JobQueued {
		http.Error(rw, "job already "+string(j.state), http.StatusConflict)
		return
	}
	j.stolen = true
	delete(w.jobs, name)
	w.logf("worker: job %s stolen while queued", name)
	rw.WriteHeader(http.StatusOK)
}

// handleEvents answers the log from the since cursor. With wait=<ms> an
// empty answer is held until there is such an event, wait elapses, the
// request is cancelled or the worker shuts down.
func (w *Worker) handleEvents(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	since, err := strconv.Atoi(cmp.Or(q.Get("since"), "0"))
	wait, werr := strconv.Atoi(cmp.Or(q.Get("wait"), "0"))
	if err != nil || werr != nil || since < 0 || wait < 0 {
		http.Error(rw, "bad since cursor or wait", http.StatusBadRequest)
		return
	}
	held, release := context.WithTimeout(w.ctx, time.Duration(wait)*time.Millisecond)
	defer release()
	var evs []Event
	for {
		w.mu.Lock()
		if since < len(w.events) {
			evs = append(evs, w.events[since:]...)
		}
		changed := w.changed
		w.mu.Unlock()
		if len(evs) > 0 || held.Err() != nil {
			break
		}
		select {
		case <-changed:
		case <-held.Done():
		case <-r.Context().Done():
			return
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(evs)
}

// runLease drives one leased job to a terminal state: wait for a
// simulation slot (the stealable window), then run the job through a
// single-worker launcher pool so timeout/retry/backoff semantics match a
// local launch exactly, and finally publish the done event.
func (w *Worker) runLease(j *wjob) {
	defer w.wg.Done()
	// Leases take slots in the order they were accepted: racing for the
	// semaphore would let a later lease of one request overtake an earlier
	// one. Never stuck — the head of the line waits on a slot or shutdown.
	<-j.ahead
	select {
	case w.slots <- struct{}{}:
		close(j.turn)
		defer func() { <-w.slots }()
	case <-w.ctx.Done():
		close(j.turn)
		w.finishCancelled(j)
		return
	}
	w.mu.Lock()
	if j.stolen {
		w.mu.Unlock()
		return
	}
	j.state = JobRunning
	w.mu.Unlock()
	w.cfg.Obs.Gauge("remote_worker_busy").Set(float64(len(w.slots)))
	defer func() { w.cfg.Obs.Gauge("remote_worker_busy").Set(float64(len(w.slots))) }()

	spec := j.spec
	timeout, retries := spec.Timeout, spec.Retries
	if timeout == 0 {
		timeout = w.cfg.Timeout
	}
	if retries == 0 {
		retries = w.cfg.Retries
	}
	pool := launcher.New(launcher.Options{
		Workers: 1,
		Timeout: timeout,
		Retries: retries,
		Log:     w.cfg.Log,
		Obs:     w.cfg.Obs,
	})
	sum := pool.Run(w.ctx, []launcher.Job{{
		Name:    spec.Name,
		Prior:   spec.Prior,
		Resumed: spec.Resumed,
		Run: func(ctx context.Context, attempt int) (launcher.Metrics, error) {
			w.emit(Event{Type: EventStart, Job: spec.Name, Attempt: spec.Prior + attempt})
			out, err := w.cfg.Runner.Run(ctx, spec, w.emit)
			if err != nil {
				return launcher.Metrics{}, err
			}
			w.mu.Lock()
			j.out = out
			w.mu.Unlock()
			return out.Metrics, nil
		},
	}})
	rec := sum.Records()[0]
	w.finish(j, rec)
}

// finishCancelled records a lease killed before it ever got a slot.
func (w *Worker) finishCancelled(j *wjob) {
	w.finish(j, launcher.Record{
		Job:      j.spec.Name,
		Status:   launcher.StatusCancelled,
		Attempts: j.spec.Prior,
		Resumed:  j.spec.Resumed,
		Error:    "worker shut down before start",
	})
}

// finish marks the job done and publishes its terminal event.
func (w *Worker) finish(j *wjob, rec launcher.Record) {
	ev := Event{Type: EventDone, Job: j.spec.Name, Record: &rec}
	w.mu.Lock()
	j.state = JobDone
	if j.out != nil {
		ev.Console = j.out.Console
		ev.Outputs = j.out.Outputs
		ev.Stats = j.out.Stats
	}
	w.mu.Unlock()
	w.cfg.Obs.Counter("remote_worker_jobs_done_total").Inc()
	w.emit(ev)
	w.logf("worker: job %s %s (attempts=%d)", rec.Job, rec.Status, rec.Attempts)
}
