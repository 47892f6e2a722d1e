package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
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
	// record per terminal job, exactly as a local launch journals.
	Journal *launcher.Journal
	// Poll is the heartbeat bound (a worker answers a held event poll after
	// Poll at the latest) and the housekeeping cadence (default 100ms).
	Poll time.Duration
	// Transport, when set, wraps every worker client's HTTP transport
	// (chaos fault injection).
	Transport http.RoundTripper
	// Drain, when closed, ends leasing (see takeBack): queued jobs are
	// skipped and running ones finish, as in the local pool.
	Drain <-chan struct{}
	// OnCheckpoint runs for each checkpoint a worker announces; Drive
	// persists the pointer so a coordinator crash resumes from it.
	OnCheckpoint func(ptr *checkpoint.Pointer)
	// OnDone runs once per terminal job, off the loop and one per worker at
	// a time, before the job is journaled; Drive materializes the job's
	// files with it. An error fails an otherwise ok job.
	OnDone func(ev Event) error
	// Obs is the registry remote_* fleet metrics report into.
	Obs *obs.Registry
	// Log receives scheduling decisions and fleet-health messages.
	Log io.Writer
}

// Worker health is a leaky fault counter: poll and lease failures add,
// successful polls drain, and crossing the threshold quarantines the worker
// for the run. It keeps its leases and gets new ones only as a last resort.
const (
	leaseHeartbeats     = 100 // × Poll is the lease TTL
	faultPoll           = 1
	faultSubmit         = 2
	quarantineThreshold = 6
	maxRefusals         = 50 // sweeps every worker refuses before a job fails
)

// kind names what a msg asks of the driver, or an input of the driver's
// own (tick, drain, end). The driver runs start, done and ckpt — journal
// writes and OnCheckpoint — on its loop, in order; the rest off it.
type kind int

const (
	probe kind = iota // GET /v1/status: (re-)registration
	lease             // POST /v1/jobs
	poll              // GET /v1/events
	steal             // DELETE /v1/jobs/{name}
	land              // OnDone
	start
	done
	ckpt
	tick // Poll elapsed: housekeeping
	drain
	end // the run was cancelled
)

// msg is an action the step asks for and, its answer filled in at driver
// time now, the input that hands the answer back; or a tick, drain or end.
type msg struct {
	kind  kind
	wi    int       // the worker asked
	specs []JobSpec // lease: the offers of one request
	after time.Time // poll, steal: not sent before
	from  int       // poll: the cursor
	job   string    // steal, start, land
	lease uint64    // steal: the lease taken back
	thief int       // steal: the idle worker it rebalances to, -1 for the drain
	n     int       // start: the attempt
	ev    Event     // land
	rec   launcher.Record
	ptr   *checkpoint.Pointer
	// The answer, at driver time now; asked is when the request was sent.
	now, asked time.Time
	st         *WorkerStatus
	codes      []int
	evs        []Event
	stolen     bool
	err        error
}

// phase is how far a job has come under its current lease. A request about
// the lease being out is held apart (cjob.out): a start event can come
// before the lease's answer, and a steal can be out when the job starts.
type phase int

const (
	unowned  phase = iota // to be placed
	queued                // offered to or leased by its worker, not started
	running               // its worker reported the lease's start
	landing               // its done event is honoured, OnDone is out: still load
	finished              // terminal: rec is its record
)

// sweep is a job's placement since its last lease was accepted. A sweep
// offers it worker after worker, pick skipping those that refused; once every
// live worker has, the job waits for the tick, which starts the next sweep.
type sweep struct {
	refused map[int]int // this sweep: the code of each worker that refused the job alone (0: no answer)
	ended   int         // sweeps every live worker refused, none with 423 (the liveness bound)
	alone   bool        // a batch did not place the job: each offer is a request of its own
}

// cjob is the coordinator's view of one job.
type cjob struct {
	spec      JobSpec // current lease's spec (Lease/Prior/Ckpt evolve across leases)
	origPrior int     // Prior at entry, for the summary's prior/fresh split
	phase     phase
	worker    int  // queued, running, landing: the lease's worker
	out       bool // a request about the current lease is out: its lease request or a steal
	sweep     sweep
	maxAtt    int // highest absolute attempt observed
	ckpt      *checkpoint.Pointer
	rec       launcher.Record
}

// cworker is the coordinator's view of one worker.
type cworker struct {
	client             *WorkerClient
	alive, quarantined bool
	retired            bool // another protocol version: never leased to or revived
	restarted          bool // answered 410: re-registration is out
	asking, leasing    bool // a probe, a lease request is out
	faults, cursor     int  // fault score, event-log position
	lastOK             time.Time
}

// coordinator is one fleet launch: its state, and step, the one decision
// function — an input in, the actions it calls for out. step starts no
// goroutine, sends no request and reads no clock; the driver does all three.
type coordinator struct {
	opts             CoordOptions
	order            []string
	jobs             map[string]*cjob
	workers          []*cworker
	out              []msg // the current step's actions
	now              time.Time
	begun, over      bool // registration is over; nothing more is sent
	draining         bool // Drain closed: nothing is leased again
	ended            bool // cancelled: queued leases are taken back until endBy
	endBy            time.Time
	err              error   // no worker registered
	joinErrs         []error // why each unregistered worker did not
	landCap, landers int     // OnDone calls allowed at once (one per worker), out
	landQ            []msg
	lease            uint64 // the last lease id stamped: from a random start, so no run reuses one
}

// Launch distributes specs across the worker fleet and blocks until every
// job is terminal, or ctx is cancelled and the jobs queued on workers are
// taken back (a lease TTL at most). A job runs twice at once only when
// a lease expiry re-leases it while its silent owner may still run it. The
// summary carries each job's worker record, so its manifest matches a
// single-machine run's, wall clock aside.
func Launch(ctx context.Context, specs []JobSpec, opts CoordOptions) (*launcher.Summary, error) {
	c, err := newCoordinator(specs, opts)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return &launcher.Summary{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return c.drive(ctx)
}

func newCoordinator(specs []JobSpec, opts CoordOptions) (*coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("remote: no workers configured")
	}
	if opts.Poll <= 0 {
		opts.Poll = 100 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	c := &coordinator{opts: opts, jobs: map[string]*cjob{}, lease: rand.Uint64()}
	for _, spec := range specs {
		if _, dup := c.jobs[spec.Name]; dup {
			return nil, fmt.Errorf("remote: duplicate job name %q", spec.Name)
		}
		c.order = append(c.order, spec.Name)
		c.jobs[spec.Name] = &cjob{spec: spec, origPrior: spec.Prior}
	}
	for _, addr := range opts.Workers {
		cl := NewWorkerClient(addr)
		cl.SetTransport(opts.Transport) // nil: the default
		c.workers = append(c.workers, &cworker{client: cl})
	}
	return c, nil
}

// drive is the only code that starts a goroutine, sends a request or reads
// the clock. Each request and OnDone runs off the loop and comes back as
// the next input, so a worker that does not answer holds up nothing else.
// Requests outlive ctx: a cancelled run still takes its queued leases back
// (see end), and what is out when the run is over is cut short then.
func (c *coordinator) drive(ctx context.Context) (*launcher.Summary, error) {
	reqCtx, stop := context.WithCancel(context.WithoutCancel(ctx))
	defer stop()
	answers, out := make(chan msg), 0 // out: goroutines not yet back
	fold := func(in msg) {
		in.now = time.Now()
		for _, a := range c.step(in) {
			if c.write(a) {
				continue
			}
			out++
			go func() {
				if !a.after.IsZero() && hostutil.SleepCtx(reqCtx, time.Until(a.after)) != nil {
					a.err = reqCtx.Err()
				} else {
					a.asked = time.Now()
					a = c.perform(reqCtx, a)
				}
				answers <- a
			}()
		}
	}
	// The cancel is folded in once, before any input that comes after it.
	cancelled := ctx.Done()
	step := func(in msg) {
		if cancelled != nil && ctx.Err() != nil {
			cancelled = nil
			fold(msg{kind: end})
		}
		fold(in)
	}
	started := time.Now()
	step(msg{kind: tick})
	ticker := time.NewTicker(c.opts.Poll)
	defer ticker.Stop()
	drained := c.opts.Drain
	for !c.over {
		select {
		case <-cancelled:
			cancelled = nil
			fold(msg{kind: end})
		case in := <-answers:
			out--
			step(in)
		case <-drained:
			drained = nil
			step(msg{kind: drain})
		case <-ticker.C:
			step(msg{kind: tick})
		}
	}
	// Requests still out are cut short; landings still out are waited for.
	stop()
	for ; out > 0; out-- {
		step(<-answers)
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.summary(time.Since(started)), nil
}

// write runs a journal write or OnCheckpoint; it reports whether a was one.
func (c *coordinator) write(a msg) bool {
	var err error
	switch a.kind {
	case start:
		err = c.opts.Journal.Start(a.job, a.n)
	case done:
		err = c.opts.Journal.Done(a.rec)
	case ckpt:
		if c.opts.OnCheckpoint != nil {
			c.opts.OnCheckpoint(a.ptr)
		}
	default:
		return false
	}
	if err != nil {
		c.logf("coordinator: journal write failed: %v", err)
	}
	return true
}

// perform sends a's request, or runs OnDone, and returns a with the answer.
func (c *coordinator) perform(ctx context.Context, a msg) msg {
	switch cl := c.workers[a.wi].client; a.kind {
	case probe:
		a.st, a.err = cl.Status(ctx)
	case lease:
		a.codes, a.err = cl.Lease(ctx, a.specs)
	case poll:
		a.evs, a.err = cl.Events(ctx, a.from, c.opts.Poll)
	case steal:
		a.stolen, a.err = cl.Steal(ctx, a.job, a.lease)
	case land:
		a.err = c.opts.OnDone(a.ev)
	}
	return a
}

// step folds one input into the run and returns the actions it calls for.
// Once the run is over only landings are folded in; once it is cancelled,
// only landings and the answers to leases and take-backs.
func (c *coordinator) step(in msg) []msg {
	c.out, c.now = nil, in.now
	if c.over && in.kind != land || c.ended && (in.kind == probe || in.kind == poll) {
		return nil
	}
	switch in.kind {
	case probe:
		c.probed(in)
	case lease:
		c.leaseAnswered(in)
	case poll:
		c.polled(in)
	case steal:
		c.stealAnswered(in)
	case land:
		c.landed(in)
	case drain:
		c.logf("coordinator: draining — taking back queued leases; running jobs finish")
		c.draining = true
		c.takeBack()
	case end:
		c.logf("coordinator: cancelled — taking back queued leases")
		c.ended, c.endBy = true, c.now.Add(leaseHeartbeats*c.opts.Poll)
		c.over = !c.begun
	case tick:
		if !c.ended {
			c.housekeep()
		}
	}
	switch {
	case c.over || !c.begun:
	case c.ended:
		// A cancelled run leaves no job queued on a worker to start after
		// it returns: it is over once every lease answer is in and every
		// lease not started is taken back, or after a lease TTL, by which
		// a worker that does not answer has given its leases up.
		c.takeBack()
		c.over = !c.now.Before(c.endBy) ||
			!slices.ContainsFunc(c.order, func(n string) bool { return c.jobs[n].out }) &&
				!slices.ContainsFunc(c.workers, func(w *cworker) bool { return w.leasing })
	default:
		c.place() // the run is over once every job is done and every lease answer is in
		c.over = !slices.ContainsFunc(c.order, func(n string) bool { return c.jobs[n].phase != finished }) &&
			!slices.ContainsFunc(c.workers, func(w *cworker) bool { return w.leasing })
	}
	return c.out
}

func (c *coordinator) emit(a msg) { c.out = append(c.out, a) }

func (c *coordinator) logf(format string, args ...any) {
	fmt.Fprintf(c.opts.Log, format+"\n", args...)
}

// ask sends worker wi a registration probe.
func (c *coordinator) ask(wi int) {
	c.workers[wi].asking = true
	c.emit(msg{kind: probe, wi: wi})
}

// housekeep is a tick: the first sends the registration probes. Later ones
// probe dead workers, give jobs every live worker refused a new sweep, and
// steal queued jobs for idle workers, or take them back when draining.
func (c *coordinator) housekeep() {
	first := !c.begun && !slices.ContainsFunc(c.workers, func(w *cworker) bool { return w.asking })
	for wi, w := range c.workers {
		if first || c.begun && !w.alive && !w.asking && !w.retired {
			c.ask(wi)
		}
	}
	load := c.load()
	for _, j := range c.jobs {
		if s := &j.sweep; j.phase == unowned && len(s.refused) > 0 && c.pick(load, s.refused) == -1 {
			held := false // a worker holds the name for other work (423): no refusal
			for _, code := range s.refused {
				held = held || code == http.StatusLocked
			}
			if !held {
				s.ended++
			}
			s.refused = nil
		}
	}
	if c.draining {
		c.takeBack()
	} else {
		c.steal(load)
	}
}

func (c *coordinator) aliveCount() (n int) {
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// gauges refreshes the fleet-health gauges (per worker by name: label-free).
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

// noteFault charges a worker's fault counter, quarantining it at the threshold.
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

// load counts each worker's unfinished leases and offers.
func (c *coordinator) load() []int {
	n := make([]int, len(c.workers))
	for _, j := range c.jobs {
		if j.phase > unowned && j.phase < finished {
			n[j.worker]++
		}
	}
	return n
}

// pick is the placement rule: the live worker that has not refused the
// job with the least load, ties to the lowest index, quarantined workers
// only when no healthy one is left; -1 when nobody is.
func (c *coordinator) pick(load []int, refused map[int]int) int {
	best, least := -1, 0
	for i, w := range c.workers {
		if _, no := refused[i]; !w.alive || no {
			continue
		}
		n := load[i]
		if w.quarantined {
			n += 1 << 30 // behind every healthy worker
		}
		if best == -1 || n < least {
			best, least = i, n
		}
	}
	return best
}

// place is the one leasing path. Each unowned job goes where pick puts it,
// offers counted as load, so placing a run at once lands jobs where one at
// a time would; a worker's share goes in one request. A job a batch did not
// place is offered alone, in a request of its own, one such job at a time
// (as placing one job at a time would). A worker has one lease request out
// at a time; a job pick puts on a worker still to answer waits for it. A
// job every live worker refused waits for the tick, for maxRefusals sweeps.
func (c *coordinator) place() {
	load := c.load()
	solo := slices.ContainsFunc(c.order, func(n string) bool { return c.jobs[n].out && c.jobs[n].sweep.alone })
	batch := make([][]JobSpec, len(c.workers))
	for _, name := range c.order {
		j := c.jobs[name]
		if j.phase != unowned {
			continue
		}
		switch wi := c.pick(load, j.sweep.refused); {
		case c.draining:
			c.skip(j)
		case wi == -1:
			why := "remote: no live workers to lease the job to"
			if c.aliveCount() > 0 {
				if j.sweep.ended < maxRefusals {
					continue // waits for the tick
				}
				why = fmt.Sprintf("remote: every live worker refused the job, %d sweeps over (the last sweep's HTTP codes by worker, 0 for no answer: %v)",
					j.sweep.ended+1, j.sweep.refused)
			}
			c.finishJob(j, launcher.Record{Job: name, Status: launcher.StatusFailed, Attempts: j.spec.Prior,
				Resumed: j.spec.Resumed, Error: why}, nil)
		case c.workers[wi].leasing || j.sweep.alone && (solo || len(batch[wi]) > 0):
		default:
			c.lease++
			j.spec.Lease, j.phase, j.worker, j.out = c.lease, queued, wi, true
			load[wi]++
			if batch[wi] = append(batch[wi], j.spec); j.sweep.alone {
				c.offer(wi, batch[wi])
				solo = true
			}
		}
	}
	for wi, specs := range batch {
		if len(specs) > 0 && !c.workers[wi].leasing {
			c.offer(wi, specs)
		}
	}
}

// offer sends worker wi one lease request; it answers it before the next.
func (c *coordinator) offer(wi int, specs []JobSpec) {
	c.workers[wi].leasing = true
	c.emit(msg{kind: lease, wi: wi, specs: specs})
}

// leaseAnswered folds a lease request's answer: 202 and 409 (held for the
// same work already) are leases; a failed request costs one fault. A job
// offered alone and not placed is refused there for this sweep, at one
// fault unless the worker holds its name for other work (423). An offer the
// worker forfeited while the answer was out is no longer the job's.
func (c *coordinator) leaseAnswered(in msg) {
	w, codes := c.workers[in.wi], in.codes
	w.leasing = false
	if in.err != nil {
		c.logf("coordinator: worker %s refused a lease of %d job(s): %v", w.client.Addr, len(in.specs), in.err)
		c.noteFault(in.wi, faultSubmit)
		codes = make([]int, len(in.specs))
	}
	for i, spec := range in.specs {
		j, code := c.jobs[spec.Name], codes[i]
		if j.spec.Lease != spec.Lease || !j.out {
			continue
		}
		if j.out = false; code == http.StatusAccepted || code == http.StatusConflict {
			j.sweep = sweep{}
			c.opts.Obs.Counter("remote_leases_total").Inc()
			c.logf("coordinator: leased %s to worker %s", j.spec.Name, w.client.Addr)
			continue
		}
		if j.phase < landing {
			j.phase = unowned
		}
		if len(in.specs) > 1 {
			j.sweep.alone = true
			continue
		}
		if j.sweep.refused == nil {
			j.sweep.refused = map[int]int{}
		}
		if j.sweep.refused[in.wi] = code; code != http.StatusLocked && in.err == nil {
			c.logf("coordinator: worker %s refused lease for %s: HTTP %d", w.client.Addr, j.spec.Name, code)
			c.noteFault(in.wi, faultSubmit)
		}
	}
	c.opts.Obs.Gauge("remote_worker_queue_" + obs.SanitizeName(w.client.Addr)).Set(float64(c.load()[in.wi]))
}

// probed folds a probe's answer: a worker of this protocol version joins at
// the end of its event log, one of another is retired. Registration waits
// for every answer and needs one worker; every job is placed before any
// event is handled. Later, a restarted worker's jobs re-lease, and a dead
// worker rejoins (its old leases are stale), still quarantined if it was.
func (c *coordinator) probed(in msg) {
	w, err := c.workers[in.wi], in.err
	w.asking = false
	if err == nil && in.st.Protocol != protocolVersion {
		w.retired = true
		err = fmt.Errorf("worker %s speaks protocol %d, not %d: %w", w.client.Addr, in.st.Protocol, protocolVersion, ErrProtocolVersion)
		c.logf("coordinator: %v", err)
	}
	if w.alive = err == nil; w.alive {
		w.cursor, w.lastOK = in.st.Seq, c.now
		c.logf("coordinator: worker %s registered (slots=%d)", w.client.Addr, in.st.Slots)
	}
	c.gauges()
	switch {
	case !c.begun:
		if err != nil {
			c.joinErrs = append(c.joinErrs, err)
			if !w.retired {
				c.logf("coordinator: worker %s unreachable at start: %v", w.client.Addr, err)
			}
		}
		if slices.ContainsFunc(c.workers, func(w *cworker) bool { return w.asking }) {
			return // registration waits for every answer
		}
		if c.landCap = c.aliveCount(); c.landCap == 0 {
			c.err = fmt.Errorf("remote: none of %d workers registered: %w", len(c.workers), errors.Join(c.joinErrs...))
			c.over = true
			return
		}
		c.begun = true
		for wi, w := range c.workers {
			if w.alive {
				c.emit(msg{kind: poll, wi: wi, from: w.cursor})
			}
		}
		return
	case w.restarted:
		w.restarted = false
		c.forfeit(in.wi, "restarted")
	case err != nil && !w.retired:
		c.noteFault(in.wi, faultPoll) // if it ever rejoins, it rejoins quarantined
	}
	if w.alive {
		c.emit(msg{kind: poll, wi: in.wi, from: w.cursor})
	}
}

// polled folds a poll answer, the heartbeat, and polls again. A worker
// silent past the lease TTL forfeits its leases; one restarted under its
// cursor (410) is probed again, which is no expiry. An empty or failed
// answer is paced to one poll per Poll.
func (c *coordinator) polled(in msg) {
	w := c.workers[in.wi]
	switch {
	case errors.Is(in.err, ErrWorkerRestarted):
		w.restarted = true
		c.ask(in.wi)
		return
	case in.err != nil:
		c.noteFault(in.wi, faultPoll)
		if ttl := leaseHeartbeats * c.opts.Poll; c.now.Sub(w.lastOK) > ttl {
			w.alive = false
			c.gauges()
			n := c.forfeit(in.wi, fmt.Sprintf("lease expired (silent > %s)", ttl))
			c.opts.Obs.Counter("remote_lease_expiries_total").Add(uint64(n))
			return
		}
	default:
		w.lastOK = c.now
		w.faults = max(w.faults-1, 0) // the leak; a quarantine is sticky
		c.opts.Obs.Counter("remote_heartbeats_total").Inc()
		for _, ev := range in.evs {
			w.cursor = ev.Seq + 1
			c.event(in.wi, ev)
		}
	}
	next := msg{kind: poll, wi: in.wi, from: w.cursor}
	if in.err != nil || len(in.evs) == 0 {
		next.after = in.asked.Add(c.opts.Poll)
	}
	c.emit(next)
}

// event folds one worker event into the journal and run state. Events are
// honoured for the job's current lease only; anything else is stale.
func (c *coordinator) event(wi int, ev Event) {
	j, ok := c.jobs[ev.Job]
	if !ok || j.phase >= landing || ev.Lease != j.spec.Lease {
		return
	}
	switch ev.Type {
	case EventStart:
		j.maxAtt = max(j.maxAtt, ev.Attempt)
		if j.phase == queued {
			j.phase = running
		}
		c.emit(msg{kind: start, job: ev.Job, n: ev.Attempt})
	case EventCheckpoint:
		if ev.Ckpt != nil {
			j.ckpt = ev.Ckpt
			c.opts.Obs.Counter("remote_checkpoints_total").Inc()
			c.emit(msg{kind: ckpt, ptr: ev.Ckpt})
		}
	case EventDone:
		if ev.Record == nil {
			return
		}
		// A cancelled record from a live worker means the worker is
		// shutting down gracefully, not that the job failed: re-lease it.
		if ev.Record.Status == launcher.StatusCancelled {
			c.logf("coordinator: worker %s forfeited %s (shutting down); re-leasing", c.workers[wi].client.Addr, ev.Job)
			c.relay(j)
			return
		}
		j.maxAtt = max(j.maxAtt, ev.Record.Attempts)
		// The record is the job's, whatever name it carries; Resumed is as
		// the lease says (a lease again after a failed landing is not).
		rec := *ev.Record
		rec.Job, rec.Resumed = ev.Job, j.spec.Resumed
		if rec.Status != launcher.StatusOK && rec.Status != launcher.StatusFailed && rec.Status != launcher.StatusTimeout {
			rec.Status, rec.Error = launcher.StatusFailed, fmt.Sprintf("worker reported status %q", ev.Record.Status)
		}
		if c.opts.OnDone == nil {
			c.finishJob(j, rec, nil)
			return
		}
		j.phase = landing
		c.landQ = append(c.landQ, msg{kind: land, job: ev.Job, ev: ev, rec: rec})
		c.startLandings()
	}
}

// relay re-leases a forfeited job from its latest replicated checkpoint.
func (c *coordinator) relay(j *cjob) {
	j.spec.Prior = max(j.spec.Prior, j.maxAtt)
	j.spec.Ckpt = j.ckpt
	j.spec.Resumed = j.spec.Resumed || j.spec.Prior > 0 || j.spec.Ckpt != nil
	j.phase, j.out = unowned, false
}

// forfeit re-leases every job worker wi holds or was offered, and returns
// how many: a lease answer still out cannot make a job the lost worker's.
func (c *coordinator) forfeit(wi int, why string) (n int) {
	c.logf("coordinator: worker %s %s; re-leasing its jobs", c.workers[wi].client.Addr, why)
	for _, name := range c.order {
		if j := c.jobs[name]; (j.phase == queued || j.phase == running) && j.worker == wi {
			ckpt := ""
			if j.ckpt != nil {
				ckpt = fmt.Sprintf(" (restoring from checkpoint at instret %d)", j.ckpt.Instret)
			}
			c.logf("coordinator: re-leasing %s%s", name, ckpt)
			c.relay(j)
			n++
		}
	}
	return n
}

// steal has an idle, healthy worker take a queued job from the most loaded
// one, holding two at least; the owner refuses once the job started (409).
func (c *coordinator) steal(load []int) {
	for wi, w := range c.workers {
		if !w.alive || w.quarantined || load[wi] != 0 {
			continue
		}
		victim := -1
		for vi, v := range c.workers {
			if vi != wi && v.alive && load[vi] >= 2 && (victim == -1 || load[vi] > load[victim]) {
				victim = vi
			}
		}
		for _, name := range c.order {
			if j := c.jobs[name]; victim >= 0 && j.phase == queued && j.worker == victim && !j.out {
				j.out = true
				c.emit(msg{kind: steal, wi: victim, job: name, lease: j.spec.Lease, thief: wi})
				break
			}
		}
	}
}

// stealAnswered folds a steal's answer: a job its worker gave up, or does
// not hold (404), is unowned again — placed anew, or skipped when draining.
// A steal with no answer may have landed, so it stays out and is asked again
// one Poll later, until it is answered or its worker is given up (relay).
func (c *coordinator) stealAnswered(in msg) {
	j := c.jobs[in.job]
	if j.spec.Lease != in.lease || !j.out {
		return
	}
	if in.err != nil && j.phase < landing {
		c.emit(msg{kind: steal, wi: in.wi, job: in.job, lease: in.lease, thief: in.thief, after: in.asked.Add(c.opts.Poll)})
		return
	}
	if j.out = false; c.ended && in.err == nil && !in.stolen && j.phase == queued {
		j.phase = running // refused (409): it runs, and no poll will say so now
	}
	if in.err != nil || !in.stolen || j.phase >= landing {
		return
	}
	if in.thief >= 0 && !c.ended { // a cancelled run places nothing
		c.opts.Obs.Counter("remote_steals_total").Inc()
		c.logf("coordinator: worker %s stole %s from %s",
			c.workers[in.thief].client.Addr, j.spec.Name, c.workers[in.wi].client.Addr)
	}
	j.phase = unowned
}

// takeBack is the drain and the cancel: every job leased and not yet
// started is asked back from its worker; an offer out waits for its answer.
// Draining, a job unowned or given back is skipped, and the next tick asks
// again for those whose worker refused (409). Cancelled, it is left
// unfinished, and a refusal means the job started.
func (c *coordinator) takeBack() {
	for _, name := range c.order {
		switch j := c.jobs[name]; {
		case j.phase == queued && !j.out:
			j.out = true
			c.emit(msg{kind: steal, wi: j.worker, job: name, lease: j.spec.Lease, thief: -1})
		case j.phase == unowned && !c.ended:
			c.skip(j)
		}
	}
}

// skip records a drained job skipped, as the local pool does.
func (c *coordinator) skip(j *cjob) {
	c.finishJob(j, launcher.Record{Job: j.spec.Name, Status: launcher.StatusSkipped,
		Attempts: max(j.maxAtt, j.spec.Prior), Resumed: j.spec.Resumed, Error: "drained before start"}, nil)
}

// startLandings hands queued landings to free landers.
func (c *coordinator) startLandings() {
	for ; len(c.landQ) > 0 && c.landers < c.landCap && !c.ended; c.landers++ {
		c.emit(c.landQ[0])
		c.landQ = c.landQ[1:]
	}
}

// landed folds an OnDone outcome. One cut short by the end of the run is no
// verdict; a failed landing of an ok result fails the attempt, as a failed
// post-run hook does, and the job is leased again while attempts are left.
func (c *coordinator) landed(in msg) {
	c.landers--
	c.startLandings()
	j, rec := c.jobs[in.job], in.rec
	left := j.spec.Retries - (rec.Attempts - j.spec.Prior)
	switch {
	case in.err != nil && c.ended:
	case in.err != nil && rec.Status == launcher.StatusOK && left >= 0:
		c.logf("coordinator: landing %s failed (%v); leasing it again", rec.Job, in.err)
		j.spec.Prior, j.spec.Retries, j.phase, j.out = rec.Attempts, left, unowned, false
	default:
		c.finishJob(j, rec, in.err)
	}
}

// finishJob records the job's terminal state; an ok job whose files could
// not be materialized is failed, so -resume runs it again.
func (c *coordinator) finishJob(j *cjob, rec launcher.Record, landErr error) {
	if landErr != nil {
		c.logf("coordinator: materializing %s: %v", rec.Job, landErr)
		if rec.Status == launcher.StatusOK {
			rec.Status, rec.Error = launcher.StatusFailed, landErr.Error()
		}
	}
	j.phase, j.rec = finished, rec
	c.emit(msg{kind: done, rec: rec})
	c.opts.Obs.Counter("remote_jobs_done_total").Inc()
	c.logf("coordinator: job %-24s %s (attempts=%d)", rec.Job, rec.Status, rec.Attempts)
}

// summary reports each job's record; a job not terminal is cancelled.
func (c *coordinator) summary(wall time.Duration) *launcher.Summary {
	sum := &launcher.Summary{Wall: wall, Workers: max(c.aliveCount(), 1)}
	for _, name := range c.order {
		j := c.jobs[name]
		res := launcher.Result{Name: name, Status: launcher.StatusCancelled, Attempts: max(j.maxAtt, j.origPrior) - j.origPrior,
			Prior: j.origPrior, Resumed: j.spec.Resumed, Err: "run cancelled with job on worker fleet"}
		if rec := j.rec; j.phase == finished {
			res = launcher.Result{Name: name, Status: rec.Status, Attempts: rec.Attempts - j.origPrior,
				Prior: j.origPrior, Resumed: rec.Resumed, Err: rec.Error,
				Metrics: launcher.Metrics{ExitCode: rec.Exit, Cycles: rec.Cycles, Instrs: rec.Instrs},
				Wall:    time.Duration(rec.WallMS * float64(time.Millisecond)), Carried: &rec}
		}
		sum.Jobs = append(sum.Jobs, res)
	}
	return sum
}
