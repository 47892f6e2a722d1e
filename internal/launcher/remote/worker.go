package remote

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
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
	// Obs is the registry remote_worker_* metrics report into.
	Obs *obs.Registry
	// Log receives progress messages.
	Log io.Writer
}

// jobState classifies a job on a worker.
type jobState string

const (
	// jobQueued: leased but not yet started — the stealable window.
	jobQueued jobState = "queued"
	// jobRunning: executing (or retrying) on a simulation slot.
	jobRunning jobState = "running"
	// jobDone: terminal; its done event is in the log.
	jobDone jobState = "done"
)

// wjob is one lease's worker-side state.
type wjob struct {
	spec   JobSpec // spec.Lease changes only under Worker.mu, on adoption
	state  jobState
	stolen bool
	out    *RunOutput // last successful attempt's output
	// The line for slots: ahead closes once the lease accepted before this
	// one has taken a slot (or given up), turn once this one has.
	ahead, turn chan struct{}
}

// Worker executes leased jobs and serves the fleet protocol over HTTP:
//
//	GET    /v1/status                registration probe
//	POST   /v1/jobs                  lease jobs (body: []JobSpec; answer: one status per spec)
//	GET    /v1/events?since=N        the event log from sequence N; with &wait=<ms>
//	                                 held until there is such an event or wait elapses;
//	                                 410 when N is outside this process's log (a restart)
//	DELETE /v1/jobs/{name}?lease=L   steal lease L of a still-queued job (409 once
//	                                 started, 404 when L is not held here)
//
// Each lease runs through its own single-worker launcher pool, under the
// lease's own timeout and retries, and a slots semaphore bounding real
// concurrency; queued leases take slots in the order they were accepted.
// Every externally observable fact (attempt starts, replicated
// checkpoints, terminal records) lands in one worker-global event log the
// coordinator drains with a single cursor, each event stamped with its lease.
type Worker struct {
	cfg   WorkerConfig
	mux   *http.ServeMux
	slots chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*wjob
	base    int // Seq of events[0], random per process: no earlier process's cursor is in the log
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
		base:   rand.IntN(math.MaxInt / 2),

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

// emit appends one event of lease j to the worker-global log, stamping its
// sequence and the lease's id.
func (w *Worker) emit(j *wjob, ev Event) {
	w.mu.Lock()
	w.emitLocked(j, ev)
	w.mu.Unlock()
}

func (w *Worker) emitLocked(j *wjob, ev Event) {
	ev.Seq, ev.Lease = w.base+len(w.events), j.spec.Lease
	w.events = append(w.events, ev)
	close(w.changed)
	w.changed = make(chan struct{})
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.mu.Lock()
	st := WorkerStatus{Protocol: protocolVersion, Slots: w.cfg.Slots, Seq: w.base + len(w.events)}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(&st)
}

// handleLease answers an array of specs with one status per spec, in order:
// 202 accepted, 409 already held (not terminal) for the same work, which takes
// the new lease id, 423 the name is held (not terminal) for other work, 503
// shutting down, 400 nameless. Accepted leases take slots in array order.
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
	if old, exists := w.jobs[spec.Name]; exists && old.state != jobDone {
		defer w.mu.Unlock()
		// A name outlives its coordinator: the lease one left running is
		// this lease, and carries its id, only if it does the same work.
		if sameWork(old.spec, spec) {
			old.spec.Lease = spec.Lease
			return http.StatusConflict
		}
		return http.StatusLocked
	}
	// A terminal entry is re-leasable: the coordinator arbitrates leases,
	// and re-running is deterministic, so a re-lease (post-forfeit retry,
	// the next run of the workload) just computes its record again.
	j := &wjob{spec: spec, state: jobQueued, ahead: w.tail, turn: make(chan struct{})}
	w.tail = j.turn
	w.jobs[spec.Name] = j
	w.mu.Unlock()
	w.cfg.Obs.Counter("remote_worker_leases_total").Inc()
	w.logf("worker: leased job %s (sim=%s)", spec.Name, spec.Sim)

	w.wg.Add(1)
	go w.runLease(j)
	return http.StatusAccepted
}

// sameWork reports whether two specs compute the same result: they differ
// at most in Lease, attempt bookkeeping (Prior, Resumed, Ckpt) and the attempt
// policy (Timeout, Retries), as a `-resume` after a coordinator crash does.
func sameWork(a, b JobSpec) bool {
	for _, s := range []*JobSpec{&a, &b} {
		s.Lease, s.Prior, s.Resumed, s.Ckpt, s.Timeout, s.Retries = 0, 0, false, nil, 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// handleJob routes /v1/jobs/{name}: DELETE is the steal protocol. A steal
// names its lease, so it is idempotent: a lease not held here (stolen
// already, or never this process's) is answered 404, and a late duplicate
// never takes a later lease of the name.
func (w *Worker) handleJob(rw http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if r.Method != http.MethodDelete {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	lease, err := strconv.ParseUint(r.URL.Query().Get("lease"), 10, 64)
	if err != nil {
		http.Error(rw, "bad lease", http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[name]
	if !ok || j.spec.Lease != lease {
		http.Error(rw, "lease not held", http.StatusNotFound)
		return
	}
	// Only a job that has not started may leave: the owning worker is the
	// arbiter, so a steal can never race a running simulation into
	// duplicate execution.
	if j.state != jobQueued {
		http.Error(rw, "job already "+string(j.state), http.StatusConflict)
		return
	}
	j.stolen = true
	delete(w.jobs, name)
	w.logf("worker: job %s stolen while queued", name)
	rw.WriteHeader(http.StatusOK)
}

// handleEvents answers the log from the since cursor. With wait=<ms> an
// empty answer is held until there is an event, wait elapses, the request is
// cancelled or the worker shuts down. A cursor outside [base, end] was handed
// out by an earlier process at this address: it is answered 410.
func (w *Worker) handleEvents(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	since, err := strconv.Atoi(q.Get("since"))
	wait, werr := strconv.Atoi(cmp.Or(q.Get("wait"), "0"))
	if err != nil || werr != nil || wait < 0 {
		http.Error(rw, "bad since cursor or wait", http.StatusBadRequest)
		return
	}
	held, release := context.WithTimeout(w.ctx, time.Duration(wait)*time.Millisecond)
	defer release()
	var evs []Event
	for {
		w.mu.Lock()
		if since < w.base || since > w.base+len(w.events) {
			w.mu.Unlock()
			http.Error(rw, "cursor outside the event log: the worker restarted", http.StatusGone)
			return
		}
		evs = w.events[since-w.base:]
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
// single-worker launcher pool under exactly the lease's timeout and retries,
// as a local launch would, and finally publish the done event.
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
	j.state = jobRunning
	spec := j.spec
	w.mu.Unlock()
	w.cfg.Obs.Gauge("remote_worker_busy").Set(float64(len(w.slots)))
	defer func() { w.cfg.Obs.Gauge("remote_worker_busy").Set(float64(len(w.slots))) }()

	pool := launcher.New(launcher.Options{
		Workers: 1,
		Timeout: spec.Timeout,
		Retries: spec.Retries,
		Log:     w.cfg.Log,
		Obs:     w.cfg.Obs,
	})
	sum := pool.Run(w.ctx, []launcher.Job{{
		Name:    spec.Name,
		Prior:   spec.Prior,
		Resumed: spec.Resumed,
		Run: func(ctx context.Context, attempt int) (launcher.Metrics, error) {
			w.emit(j, Event{Type: EventStart, Job: spec.Name, Attempt: spec.Prior + attempt})
			out, err := w.cfg.Runner.Run(ctx, spec, func(ev Event) { w.emit(j, ev) })
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

// finish marks the job done and publishes its terminal event, in one step:
// an adoption sees both or neither, so the event carries the adopter's id.
func (w *Worker) finish(j *wjob, rec launcher.Record) {
	ev := Event{Type: EventDone, Job: j.spec.Name, Record: &rec}
	w.cfg.Obs.Counter("remote_worker_jobs_done_total").Inc()
	w.mu.Lock()
	j.state = jobDone
	if j.out != nil {
		ev.Console = j.out.Console
		ev.Outputs = j.out.Outputs
		ev.Stats = j.out.Stats
	}
	w.emitLocked(j, ev)
	w.mu.Unlock()
	w.logf("worker: job %s %s (attempts=%d)", rec.Job, rec.Status, rec.Attempts)
}
