package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// CoordOptions parameterizes a coordinated (fleet) launch.
type CoordOptions struct {
	// Workers lists worker addresses ("host:port"). At least one must
	// answer the initial status probe.
	Workers []string
	// Journal, when set, receives a start record per attempt and a done
	// record per terminal job, exactly as a local launch journals — the
	// coordinator's journal/manifest stays the single source of truth,
	// and `-resume` after a coordinator crash works unchanged.
	Journal *launcher.Journal
	// Poll is the heartbeat bound (a worker answers its outstanding event
	// poll on its next event or after Poll) and the housekeeping cadence —
	// not event latency: events are handled as they happen (default 100ms).
	// A worker silent for leaseHeartbeats polls forfeits its leases.
	Poll time.Duration
	// Transport, when set, wraps every worker client's HTTP transport
	// (chaos fault injection).
	Transport http.RoundTripper
	// Drain, when closed, ends leasing (see takeBack): queued jobs are
	// skipped and running ones finish, as in the local pool.
	Drain <-chan struct{}
	// OnCheckpoint runs for each checkpoint a worker announces; Drive
	// persists the pointer into the run's checkpoint directory so a
	// coordinator crash resumes from it.
	OnCheckpoint func(ptr *checkpoint.Pointer)
	// OnDone runs for each terminal job (once), with its done event, before
	// the job is journaled; Drive materializes the console and outputs from
	// the remote cache into the job's run directory. An error fails an
	// otherwise ok job. Runs off the coordinator loop, one per worker at a time.
	OnDone func(ev Event) error
	// Obs is the registry remote_* fleet metrics report into.
	Obs *obs.Registry
	// Log receives scheduling decisions and fleet-health messages.
	Log io.Writer
}

// Worker health scoring: a leaky fault counter per worker. Poll and
// submit failures add, successful polls drain, and crossing the
// threshold quarantines the worker — it keeps its running leases (the
// TTL remains the only forfeit path) but receives no new ones for the
// rest of the run. Quarantine is sticky: a worker flaky enough to cross
// the threshold once doesn't get to poison tail latency again.
const (
	// leaseHeartbeats × Poll is the lease TTL (10s at the default Poll).
	leaseHeartbeats = 100

	faultPoll           = 1
	faultSubmit         = 2
	quarantineThreshold = 6
	// reconcileEvery is the cadence, in Poll ticks, of the reconcile
	// pass: a Status fetch that re-derives lease truth from the worker
	// (a job we think it owns but it doesn't hold was lost in transit —
	// e.g. a steal whose response dropped — and must be re-leased).
	reconcileEvery = 8
	// maxRefusals bounds how many full assignment sweeps a job survives
	// without any worker accepting it before it fails terminally.
	maxRefusals = 50
)

// cjob is the coordinator's view of one job.
type cjob struct {
	spec      JobSpec // current lease's spec (Lease/Prior/Ckpt evolve across leases)
	origPrior int     // Prior at entry, for the summary's prior/fresh split
	worker    int     // owning worker index, -1 when unowned
	started   bool    // a start event of the current lease arrived
	maxAtt    int     // highest absolute attempt observed
	refusals  int     // failed assignment sweeps (liveness bound)
	ckpt      *checkpoint.Pointer
	landing   bool // done event honoured, OnDone running: still load, see settled
	done      bool
	rec       launcher.Record
}

// settled: the job's outcome is decided; scheduling and events pass it by.
func (j *cjob) settled() bool { return j.done || j.landing }

// cworker is the coordinator's view of one worker.
type cworker struct {
	client      *WorkerClient
	alive       bool
	quarantined bool
	retired     bool      // another protocol version: never leased to or revived
	faults      int       // leaky fault counter
	ticks       int       // Poll ticks spent alive (reconcile cadence)
	cursor      int       // event-log read position
	lastOK      time.Time // last successful poll — the lease clock
}

// polled is one answer to worker wi's event poll (sent at asked), landed one
// job's OnDone outcome: what the goroutines hand back to the coordinator loop.
type polled struct {
	wi    int
	asked time.Time
	evs   []Event
	err   error
}
type landed struct {
	j   *cjob
	rec launcher.Record
	err error
}

// coordinator drives one fleet launch.
type coordinator struct {
	opts     CoordOptions
	order    []string
	jobs     map[string]*cjob
	workers  []*cworker
	polls    chan polled
	pollCtx  context.Context // ends every poll in flight before Launch returns
	pollers  sync.WaitGroup
	landed   chan landed
	landers  chan struct{} // OnDone runs in flight: one per registered worker
	landings int           // landers not yet back on the loop
	draining bool          // Drain closed: nothing is leased again
	lease    uint64        // the last lease id stamped: from a random start, so no run reuses one
}

// Launch distributes specs across the worker fleet and blocks until every
// job is terminal (or ctx is cancelled). Scheduling is least-loaded with
// ties broken by worker order; stragglers are rebalanced by stealing
// still-queued jobs onto idle workers; a worker unreachable past the lease
// TTL forfeits its jobs, which re-lease — restoring from the latest
// replicated checkpoint — onto live workers; an error-prone worker is
// quarantined from new leases; closing Drain takes back every queued
// lease and lets the running jobs finish. A job has one owner at a time:
// it runs twice at once only when a lease expiry re-leases it while the
// silent owner may still be running it. The returned summary carries
// each job's worker record (Resumed as the lease says), so manifests
// compacted from it match single-machine runs (wall-clock fields aside).
func Launch(ctx context.Context, specs []JobSpec, opts CoordOptions) (*launcher.Summary, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("remote: no workers configured")
	}
	if len(specs) == 0 {
		return &launcher.Summary{}, nil
	}
	if opts.Poll <= 0 {
		opts.Poll = 100 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if ctx == nil {
		ctx = context.Background()
	}

	c := &coordinator{opts: opts, jobs: map[string]*cjob{}, polls: make(chan polled), landed: make(chan landed), lease: rand.Uint64()}
	for _, spec := range specs {
		if _, dup := c.jobs[spec.Name]; dup {
			return nil, fmt.Errorf("remote: duplicate job name %q", spec.Name)
		}
		c.order = append(c.order, spec.Name)
		c.jobs[spec.Name] = &cjob{spec: spec, origPrior: spec.Prior, worker: -1}
	}

	// Registration: probe every worker once; a worker that answers with
	// this protocol version is in the fleet. The run needs at least one.
	var unregistered []error
	for wi, addr := range opts.Workers {
		cl := NewWorkerClient(addr)
		if opts.Transport != nil {
			cl.SetTransport(opts.Transport)
		}
		c.workers = append(c.workers, &cworker{client: cl})
		if err := c.register(ctx, wi); err != nil {
			unregistered = append(unregistered, err)
			if !c.workers[wi].retired {
				c.logf("coordinator: worker %s unreachable at start: %v", addr, err)
			}
		}
	}
	if c.aliveCount() == 0 {
		return nil, fmt.Errorf("remote: none of %d workers registered: %w", len(opts.Workers), errors.Join(unregistered...))
	}

	c.landers = make(chan struct{}, c.aliveCount())

	start := time.Now()
	drain := opts.Drain
	select {
	case <-drain: // drained before anything was leased: the loop skips every job
	default:
		c.leaseAll(ctx)
	}

	// No event is handled while leasing: the schedule must not depend on how
	// fast the first jobs finish. Then one poll per live worker, and a ticker.
	var stopPolls context.CancelFunc
	c.pollCtx, stopPolls = context.WithCancel(ctx)
	defer func() { stopPolls(); c.pollers.Wait() }()
	for wi, w := range c.workers {
		if w.alive {
			c.poll(wi, time.Time{})
		}
	}
	tick := time.NewTicker(opts.Poll)
	defer tick.Stop()
	cancelled := false
	for !c.allDone() && !cancelled {
		select {
		case <-ctx.Done():
			cancelled = true
		case p := <-c.polls:
			c.handlePoll(ctx, p)
		case l := <-c.landed:
			c.finishLanding(ctx, l)
		case <-drain:
			drain = nil
			c.logf("coordinator: draining — taking back queued leases; running jobs finish")
			c.takeBack(ctx)
		case <-tick.C: // housekeeping
			for wi, w := range c.workers {
				if !w.alive {
					c.revive(ctx, wi)
				} else if w.ticks++; w.ticks%reconcileEvery == 0 {
					c.reconcile(ctx, wi)
				}
			}
			if c.draining {
				c.takeBack(ctx)
				continue
			}
			c.reassignOrphans(ctx)
			c.steal(ctx)
		}
	}
	for c.landings > 0 {
		c.finishLanding(ctx, <-c.landed)
	}

	sum := &launcher.Summary{Wall: time.Since(start), Workers: max(c.aliveCount(), 1)}
	for _, name := range c.order {
		j := c.jobs[name]
		if j.done {
			rec := j.rec
			sum.Jobs = append(sum.Jobs, launcher.Result{
				Name:     name,
				Status:   rec.Status,
				Attempts: rec.Attempts - j.origPrior,
				Prior:    j.origPrior,
				Resumed:  rec.Resumed,
				Err:      rec.Error,
				Metrics:  launcher.Metrics{ExitCode: rec.Exit, Cycles: rec.Cycles, Instrs: rec.Instrs},
				Wall:     time.Duration(rec.WallMS * float64(time.Millisecond)),
				Carried:  &rec,
			})
			continue
		}
		// Not terminal when the loop ended: the run was cancelled. No
		// done record is journaled, so `-resume` re-runs (or restores)
		// these jobs.
		sum.Jobs = append(sum.Jobs, launcher.Result{
			Name:     name,
			Status:   launcher.StatusCancelled,
			Attempts: j.maxAtt - j.origPrior,
			Prior:    j.origPrior,
			Resumed:  j.spec.Resumed,
			Err:      "run cancelled with job on worker fleet",
		})
	}
	return sum, nil
}

func (c *coordinator) logf(format string, args ...any) {
	fmt.Fprintf(c.opts.Log, format+"\n", args...)
}

func (c *coordinator) aliveCount() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// gauges refreshes the fleet-health gauges: the aggregate up and
// quarantined counts and a per-worker 0/1 gauge (registry names are
// label-free, so the worker address is folded into the metric name).
func (c *coordinator) gauges() {
	up, quarantined := 0, 0
	for _, w := range c.workers {
		alive := 0.0
		if w.alive {
			up, alive = up+1, 1
			if w.quarantined {
				quarantined++
			}
		}
		c.opts.Obs.Gauge("remote_worker_up_" + obs.SanitizeName(w.client.Addr)).Set(alive)
	}
	c.opts.Obs.Gauge("remote_workers_up").Set(float64(up))
	c.opts.Obs.Gauge("remote_workers_quarantined").Set(float64(quarantined))
}

// noteFault charges a worker's leaky fault counter; crossing the
// threshold quarantines it (no new leases; running leases keep going —
// the lease TTL stays the only forfeit path).
func (c *coordinator) noteFault(wi, weight int) {
	w := c.workers[wi]
	w.faults += weight
	if w.faults >= quarantineThreshold && !w.quarantined {
		w.quarantined = true
		c.opts.Obs.Counter("remote_worker_quarantines_total").Inc()
		c.logf("coordinator: quarantining error-prone worker %s (fault score %d)", w.client.Addr, w.faults)
		c.gauges()
	}
}

func (c *coordinator) allDone() bool {
	for _, j := range c.jobs {
		if !j.done {
			return false
		}
	}
	return true
}

// outstanding counts a worker's not-yet-terminal leases, the scheduler's
// load metric.
func (c *coordinator) outstanding(wi int) int {
	n := 0
	for _, j := range c.jobs {
		if !j.done && j.worker == wi {
			n++
		}
	}
	return n
}

// pick is the placement rule: the live worker with the least load, ties to
// the lowest index (schedules are deterministic given worker order),
// quarantined workers only when no healthy one is left. skip names workers
// already tried; -1 means nobody is left.
func (c *coordinator) pick(load func(wi int) int, skip map[int]bool) int {
	best, least := -1, 0
	for i, w := range c.workers {
		if !w.alive || skip[i] {
			continue
		}
		n := load(i)
		if w.quarantined {
			n += 1 << 30 // behind every healthy worker
		}
		if best == -1 || n < least {
			best, least = i, n
		}
	}
	return best
}

// leaseAll starts the run: every job is placed by pick — bookkeeping, so the
// schedule is the one job-at-a-time assignment produces — and each worker
// is leased its share in one request. Whatever it did not accept, or all of
// a failed request (one fault), goes through assign and its fault charging.
func (c *coordinator) leaseAll(ctx context.Context) {
	jobs := make([][]*cjob, len(c.workers)) // a worker's share is its load: nothing is leased yet
	specs := make([][]JobSpec, len(c.workers))
	for _, name := range c.order {
		if wi := c.pick(func(i int) int { return len(jobs[i]) }, nil); wi != -1 {
			jobs[wi] = append(jobs[wi], c.jobs[name])
			specs[wi] = append(specs[wi], c.stamp(c.jobs[name]))
		}
	}
	for wi, w := range c.workers {
		if len(jobs[wi]) == 0 {
			continue
		}
		codes, err := w.client.Lease(ctx, specs[wi])
		if ctx.Err() != nil {
			return // cancelled: the summary reports unleased jobs cancelled
		}
		if err != nil {
			c.logf("coordinator: worker %s refused a lease of %d job(s): %v", w.client.Addr, len(jobs[wi]), err)
			c.noteFault(wi, faultSubmit)
			continue
		}
		for i, j := range jobs[wi] {
			if codes[i] == http.StatusAccepted || codes[i] == http.StatusConflict {
				c.leased(j, wi)
			}
		}
		c.opts.Obs.Gauge("remote_worker_queue_" + obs.SanitizeName(w.client.Addr)).Set(float64(c.outstanding(wi)))
	}
	c.reassignOrphans(ctx)
}

// stamp gives j a fresh lease id for its next offer and returns the spec to
// offer: events of any earlier lease of j are stale from here on.
func (c *coordinator) stamp(j *cjob) JobSpec {
	c.lease++
	j.spec.Lease = c.lease
	return j.spec
}

// leased records that worker wi now holds j's lease.
func (c *coordinator) leased(j *cjob, wi int) {
	j.worker, j.started, j.refusals = wi, false, 0
	c.opts.Obs.Counter("remote_leases_total").Inc()
	c.logf("coordinator: leased %s to worker %s", j.spec.Name, c.workers[wi].client.Addr)
}

// assign leases one job by the placement rule. A worker that refuses the
// lease is charged a fault and skipped for this sweep — transient refusals
// no longer declare it dead (the lease TTL decides death). A job no worker
// accepts stays unowned and is retried next tick, up to a refusal bound; it
// fails terminally only with zero live workers or the bound exhausted. A
// worker holding the name for other work is no refusal: no fault, no count.
func (c *coordinator) assign(ctx context.Context, j *cjob) {
	if c.draining {
		c.skip(j)
		return
	}
	tried, held := map[int]bool{}, false
	for ctx.Err() == nil {
		best := c.pick(c.outstanding, tried)
		if best == -1 {
			if c.aliveCount() > 0 && len(tried) > 0 {
				// Every live worker refused this sweep; leave the job
				// unowned and let the next tick retry with fresh luck.
				if !held {
					j.refusals++
				}
				if j.refusals <= maxRefusals {
					j.worker = -1
					return
				}
			}
			c.finishJob(j, launcher.Record{
				Job:      j.spec.Name,
				Status:   launcher.StatusFailed,
				Attempts: j.spec.Prior,
				Resumed:  j.spec.Resumed,
				Error:    "remote: no live workers to lease the job to",
			}, nil)
			return
		}
		if err := c.workers[best].client.Submit(ctx, c.stamp(j)); err != nil && !errors.Is(err, ErrAlreadyLeased) {
			if ctx.Err() != nil {
				// The run is being cancelled, not the worker dying: leave
				// the job unowned so the summary reports it cancelled.
				return
			}
			tried[best] = true
			if errors.Is(err, ErrHeldForOtherWork) {
				held = true
				continue
			}
			c.logf("coordinator: worker %s refused lease for %s: %v", c.workers[best].client.Addr, j.spec.Name, err)
			c.noteFault(best, faultSubmit)
			continue
		}
		c.leased(j, best)
		c.opts.Obs.Gauge("remote_worker_queue_" + obs.SanitizeName(c.workers[best].client.Addr)).Set(float64(c.outstanding(best)))
		return
	}
}

// reassignOrphans retries jobs left unowned by an all-refused sweep.
func (c *coordinator) reassignOrphans(ctx context.Context) {
	for _, name := range c.order {
		if j := c.jobs[name]; !j.settled() && j.worker == -1 {
			c.assign(ctx, j)
		}
	}
}

// poll puts worker wi's next event poll in flight, not before after; the
// goroutine owns nothing but the request and hands the answer to the loop.
func (c *coordinator) poll(wi int, after time.Time) {
	w := c.workers[wi]
	cursor := w.cursor
	c.pollers.Add(1)
	go func() {
		defer c.pollers.Done()
		if hostutil.SleepCtx(c.pollCtx, time.Until(after)) != nil {
			return
		}
		asked := time.Now()
		evs, err := w.client.Events(c.pollCtx, cursor, c.opts.Poll)
		select {
		case c.polls <- polled{wi, asked, evs, err}:
		case <-c.pollCtx.Done():
		}
	}()
}

// handlePoll folds one poll answer into the run and polls again; a successful
// answer is the heartbeat. A worker silent past the lease TTL forfeits its
// leases and is not polled again until it revives. A worker restarted since
// the cursor was handed out lost its leases with its log: it is registered
// again and its jobs re-leased, which is no lease expiry. The worker holds
// an empty answer for Poll: an empty or failed one that comes back sooner (a
// worker that ignores wait, a dropped request) is paced to one per Poll.
func (c *coordinator) handlePoll(ctx context.Context, p polled) {
	w := c.workers[p.wi]
	switch {
	case errors.Is(p.err, ErrWorkerRestarted):
		err := c.register(ctx, p.wi)
		c.forfeit(ctx, p.wi, "restarted")
		if err != nil {
			return // not alive: revive polls it once it answers
		}
	case p.err != nil:
		c.noteFault(p.wi, faultPoll)
		if ttl := leaseHeartbeats * c.opts.Poll; time.Since(w.lastOK) > ttl {
			w.alive = false
			c.gauges()
			n := c.forfeit(ctx, p.wi, fmt.Sprintf("lease expired (silent > %s)", ttl))
			c.opts.Obs.Counter("remote_lease_expiries_total").Add(uint64(n))
			return
		}
	default:
		w.lastOK = time.Now()
		w.faults = max(w.faults-1, 0) // the leak; a quarantine is sticky
		c.opts.Obs.Counter("remote_heartbeats_total").Inc()
		for _, ev := range p.evs {
			w.cursor = ev.Seq + 1
			c.handleEvent(ctx, p.wi, ev)
		}
	}
	after := time.Time{}
	if p.err != nil || len(p.evs) == 0 {
		after = p.asked.Add(c.opts.Poll)
	}
	c.poll(p.wi, after)
}

// register probes worker wi and, when it answers with this protocol
// version, joins it to the fleet at the end of its event log. A worker of
// another version is retired: logged, never leased to and never revived.
func (c *coordinator) register(ctx context.Context, wi int) error {
	w := c.workers[wi]
	st, err := w.client.Status(ctx)
	if err == nil && st.Protocol != protocolVersion {
		w.retired = true
		err = fmt.Errorf("worker %s speaks protocol %d, not %d: %w", w.client.Addr, st.Protocol, protocolVersion, ErrProtocolVersion)
		c.logf("coordinator: %v", err)
	}
	if w.alive = err == nil; w.alive {
		w.cursor, w.lastOK = st.Seq, time.Now()
		c.logf("coordinator: worker %s registered (slots=%d)", w.client.Addr, st.Slots)
	}
	c.gauges()
	return err
}

// revive re-probes a dead worker each tick. A worker that failed the
// initial registration probe (or went silent past the lease TTL) is not
// gone forever: the moment it answers again it rejoins the fleet at its
// current event cursor. Its forfeited jobs already re-leased elsewhere, and
// the events it emits for them carry leases no job holds any more, so
// rejoining is always safe. A quarantine survives revival — flakiness is
// why it went dark.
func (c *coordinator) revive(ctx context.Context, wi int) {
	switch {
	case c.workers[wi].retired:
	case c.register(ctx, wi) != nil:
		// A worker that keeps failing the probe is error-prone: if it
		// ever rejoins, it rejoins quarantined.
		c.noteFault(wi, faultPoll)
	default:
		c.poll(wi, time.Time{})
	}
}

// reconcile re-derives lease truth from one worker's own job table. A
// job we believe it owns that is absent there was lost in transit — the
// canonical case is a Steal whose success response dropped, leaving the
// worker without the job while we still charge it to the victim. Workers
// keep finished jobs in their table (only a steal removes an entry), so
// absence is unambiguous: the lease is gone, re-lease it.
func (c *coordinator) reconcile(ctx context.Context, wi int) {
	st, err := c.workers[wi].client.Status(ctx)
	if err != nil {
		c.noteFault(wi, faultPoll)
		return
	}
	for _, name := range c.order {
		j := c.jobs[name]
		if _, held := st.Jobs[name]; held || j.settled() || j.worker != wi {
			continue
		}
		c.logf("coordinator: worker %s no longer holds %s; re-leasing", c.workers[wi].client.Addr, name)
		c.opts.Obs.Counter("remote_reconciled_leases_total").Inc()
		c.relay(ctx, j)
	}
}

// handleEvent folds one worker event into the journal and run state.
// Events are honoured for the job's current lease only; anything else is
// stale (an orphan's, or a lease re-leased or stolen away since).
func (c *coordinator) handleEvent(ctx context.Context, wi int, ev Event) {
	j, ok := c.jobs[ev.Job]
	if !ok || j.settled() || ev.Lease != j.spec.Lease {
		return
	}
	switch ev.Type {
	case EventStart:
		j.maxAtt = max(j.maxAtt, ev.Attempt)
		j.started = true
		if err := c.opts.Journal.Start(ev.Job, ev.Attempt); err != nil {
			c.logf("coordinator: journal write failed: %v", err)
		}
	case EventCheckpoint:
		if ev.Ckpt != nil {
			j.ckpt = ev.Ckpt
			c.opts.Obs.Counter("remote_checkpoints_total").Inc()
			if c.opts.OnCheckpoint != nil {
				c.opts.OnCheckpoint(ev.Ckpt)
			}
		}
	case EventDone:
		if ev.Record == nil {
			return
		}
		// A cancelled record from a live worker means the worker is
		// shutting down gracefully, not that the job failed: re-lease it.
		if ev.Record.Status == launcher.StatusCancelled && ctx.Err() == nil {
			c.logf("coordinator: worker %s forfeited %s (shutting down); re-leasing", c.workers[wi].client.Addr, ev.Job)
			c.relay(ctx, j)
			return
		}
		j.maxAtt = max(j.maxAtt, ev.Record.Attempts)
		// A worker counts a lease with prior attempts as resumed; a lease
		// again after a failed landing is not, and the spec says which.
		rec := *ev.Record
		rec.Resumed = j.spec.Resumed
		c.land(j, rec, ev)
	}
}

// relay re-leases a forfeited job onto a live worker, restoring from the
// latest replicated checkpoint when one exists.
func (c *coordinator) relay(ctx context.Context, j *cjob) {
	j.spec.Prior = max(j.spec.Prior, j.maxAtt)
	j.spec.Ckpt = j.ckpt
	j.spec.Resumed = j.spec.Resumed || j.spec.Prior > 0 || j.spec.Ckpt != nil
	j.worker = -1
	c.assign(ctx, j)
}

// forfeit re-leases every unsettled job worker wi holds, each restoring from
// its latest replicated checkpoint, and returns how many there were.
func (c *coordinator) forfeit(ctx context.Context, wi int, why string) (n int) {
	c.logf("coordinator: worker %s %s; re-leasing its jobs", c.workers[wi].client.Addr, why)
	for _, name := range c.order {
		j := c.jobs[name]
		if j.settled() || j.worker != wi {
			continue
		}
		ckpt := ""
		if j.ckpt != nil {
			ckpt = fmt.Sprintf(" (restoring from checkpoint at instret %d)", j.ckpt.Instret)
		}
		c.logf("coordinator: re-leasing %s%s", j.spec.Name, ckpt)
		c.relay(ctx, j)
		n++
	}
	return n
}

// steal rebalances stragglers: an idle, healthy worker takes a
// still-queued job from the most-loaded worker. The owning worker
// arbitrates (409 once the job started), so a steal never duplicates a
// running simulation.
func (c *coordinator) steal(ctx context.Context) {
	for wi, w := range c.workers {
		if !w.alive || w.quarantined || c.outstanding(wi) != 0 {
			continue
		}
		// Victim: the live worker with the most outstanding leases, at
		// least two (stealing a worker's only job would just move it).
		victim := -1
		for vi, v := range c.workers {
			if vi == wi || !v.alive || c.outstanding(vi) < 2 {
				continue
			}
			if victim == -1 || c.outstanding(vi) > c.outstanding(victim) {
				victim = vi
			}
		}
		if victim == -1 {
			continue
		}
		for _, name := range c.order {
			j := c.jobs[name]
			if j.settled() || j.worker != victim || j.started {
				continue
			}
			ok, err := c.workers[victim].client.Steal(ctx, name)
			if err != nil || !ok {
				continue
			}
			c.opts.Obs.Counter("remote_steals_total").Inc()
			c.logf("coordinator: worker %s stole %s from %s",
				w.client.Addr, name, c.workers[victim].client.Addr)
			j.worker = -1
			c.assign(ctx, j)
			break
		}
	}
}

// takeBack is the fleet's drain: nothing is leased again, and every job not
// yet started — unowned, or given back by its worker through the steal
// protocol — is skipped. A job whose worker refuses (it started) or cannot
// answer keeps its lease; housekeeping tries again each tick.
func (c *coordinator) takeBack(ctx context.Context) {
	c.draining = true
	for _, name := range c.order {
		j := c.jobs[name]
		if j.settled() || j.started {
			continue
		}
		if j.worker >= 0 {
			if ok, err := c.workers[j.worker].client.Steal(ctx, name); err != nil || !ok {
				continue
			}
		}
		c.skip(j)
	}
}

// skip records a drained job as the local pool does: skipped, its
// checkpoint kept for -resume.
func (c *coordinator) skip(j *cjob) {
	c.finishJob(j, launcher.Record{
		Job:      j.spec.Name,
		Status:   launcher.StatusSkipped,
		Attempts: max(j.maxAtt, j.spec.Prior),
		Resumed:  j.spec.Resumed,
		Error:    "drained before start",
	}, nil)
}

// land takes a job whose done event was honoured off the schedule and runs
// its OnDone off the loop.
func (c *coordinator) land(j *cjob, rec launcher.Record, ev Event) {
	if c.opts.OnDone == nil {
		c.finishJob(j, rec, nil)
		return
	}
	j.landing = true
	c.landings++
	go func() {
		c.landers <- struct{}{}
		err := c.opts.OnDone(ev)
		<-c.landers
		c.landed <- landed{j, rec, err}
	}()
}

// finishLanding is land's other half, back on the loop. A landing cut short
// by cancellation is no verdict: no done record, so -resume runs the job. A
// failed landing of an ok result fails the attempt, as a failed post-run
// hook fails a local one: the job is leased again while attempts are left.
func (c *coordinator) finishLanding(ctx context.Context, l landed) {
	c.landings--
	j := l.j
	j.landing = false
	left := j.spec.Retries - (l.rec.Attempts - j.spec.Prior)
	switch {
	case l.err != nil && ctx.Err() != nil:
	case l.err != nil && l.rec.Status == launcher.StatusOK && left >= 0:
		c.logf("coordinator: landing %s failed (%v); leasing it again", l.rec.Job, l.err)
		j.spec.Prior, j.spec.Retries, j.worker = l.rec.Attempts, left, -1
		c.assign(ctx, j)
	default:
		c.finishJob(j, l.rec, l.err)
	}
}

// finishJob records the job's terminal state. An ok job whose OnDone failed
// is recorded as failed: a result that could not be materialized is not a
// result, and a failed record is what makes -resume run the job again.
func (c *coordinator) finishJob(j *cjob, rec launcher.Record, landErr error) {
	if landErr != nil {
		c.logf("coordinator: materializing %s: %v", rec.Job, landErr)
		if rec.Status == launcher.StatusOK {
			rec.Status, rec.Error = launcher.StatusFailed, landErr.Error()
		}
	}
	j.done = true
	j.rec = rec
	if err := c.opts.Journal.Done(rec); err != nil {
		c.logf("coordinator: journal write failed: %v", err)
	}
	c.opts.Obs.Counter("remote_jobs_done_total").Inc()
	c.logf("coordinator: job %-24s %s (attempts=%d)", rec.Job, rec.Status, rec.Attempts)
}
