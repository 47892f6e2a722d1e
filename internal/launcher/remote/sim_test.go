package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/chaos"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// The seeded fleet harness, FoundationDB-style simulation testing of the
// coordinator: a test-only driver that runs the step's actions against
// in-process Workers through an in-memory RoundTripper (the
// CoordOptions.Transport seam), on a virtual clock. Every request, tick,
// scripted fault and job run is a pending item due at a virtual time; the
// earliest due items are ready, and the seed picks which one happens next.
// A job runs until the harness releases it, and after each item the harness
// waits until every worker has done all that item set off, so a run is a
// function of its seed: the same seed gives the same journal, manifest and
// coordinator log, byte for byte.

// simFleet is one harness run.
type simFleet struct {
	t      testing.TB
	rng    *rand.Rand
	epoch  time.Time
	now    time.Time
	poll   time.Duration
	runner func(h *simFleet, wi int) RunnerFunc
	nodes  []*simNode
	queue  []*simItem
	seq    int
	whens  []*simWhen
	c      *coordinator
	atEnd  func() // runs once the run is over, before the workers are killed

	mu    sync.Mutex
	holds []*simHold // runners at the harness's gate
}

// simNode is one worker address; a restart puts a new Worker (gen) there.
type simNode struct {
	w          *Worker
	gen        int
	down       bool // closed: its jobs are reaped
	cut        bool // off the network, its jobs still running
	refuse     int  // answer the next offers of this many requests 503
	failLeases int  // fail this many lease requests outright (500)
	// The next steals: the answers of this many are lost after the worker
	// served them; dupSteal serves the next one twice and answers the second.
	loseSteals int
	dupSteal   bool
	statuses   int // GET /v1/status requests served
	// late: the answer to the next lease request it serves arrives this
	// much later, and lateThen runs as soon as it has served it.
	late     time.Duration
	lateThen func()
}

// simHold is a runner waiting at the gate until released or its worker dies.
type simHold struct {
	wi, gen  int
	job      string
	d        time.Duration // run time; < 0 runs until the worker dies
	queued   bool
	released bool
	gone     bool
	release  chan struct{}
}

type simItem struct {
	at  time.Time
	seq int
	do  func()
}

type simWhen struct {
	cond func() bool
	do   func()
}

// newSimFleet makes a harness of n single-slot workers; runner gives each
// worker (and each restart of it) its Runner. Poll is 10ms of virtual time.
func newSimFleet(t testing.TB, seed uint64, n int, runner func(h *simFleet, wi int) RunnerFunc) *simFleet {
	epoch := time.Unix(1_000_000, 0)
	h := &simFleet{t: t, rng: rand.New(rand.NewPCG(seed, 0x5eed)), epoch: epoch, now: epoch,
		poll: 10 * time.Millisecond, runner: runner}
	for i := 0; i < n; i++ {
		h.nodes = append(h.nodes, &simNode{})
		h.boot(i)
	}
	return h
}

// boot starts a fresh Worker at node wi's address.
func (h *simFleet) boot(wi int) {
	n := h.nodes[wi]
	n.gen++
	n.w, n.down = NewWorker(WorkerConfig{Runner: h.runner(h, wi), Slots: 1, Obs: obs.NewRegistry()}), false
}

func (h *simFleet) addr(wi int) string { return fmt.Sprintf("sim-%d:1", wi) }

// kill takes worker wi off the network and reaps its jobs.
func (h *simFleet) kill(wi int) {
	if n := h.nodes[wi]; !n.down {
		n.down = true
		n.w.Close()
	}
}

// restart kills worker wi (if it runs) and starts a fresh one in its place:
// the coordinator's cursor is past the new event log's end.
func (h *simFleet) restart(wi int) {
	h.kill(wi)
	h.boot(wi)
}

// at schedules fn at virtual time d into the run.
func (h *simFleet) at(d time.Duration, fn func()) { h.push(h.epoch.Add(d), fn) }

// when runs fn once, after the first item past which cond holds.
func (h *simFleet) when(cond func() bool, fn func()) { h.whens = append(h.whens, &simWhen{cond, fn}) }

func (h *simFleet) push(at time.Time, do func()) {
	h.seq++
	h.queue = append(h.queue, &simItem{at: at, seq: h.seq, do: do})
}

// hold is a runner's gate: it returns once the harness has let the job run
// for d (d < 0: never), or with ctx's error when the worker dies.
func (h *simFleet) hold(ctx context.Context, wi int, job string, d time.Duration) error {
	h.mu.Lock()
	hd := &simHold{wi: wi, gen: h.nodes[wi].gen, job: job, d: d, release: make(chan struct{})}
	h.holds = append(h.holds, hd)
	h.mu.Unlock()
	select {
	case <-hd.release:
		return nil
	case <-ctx.Done():
		h.mu.Lock()
		hd.gone = true
		h.mu.Unlock()
		return ctx.Err()
	}
}

// drawn asks hold for a run time the seed draws: up to 30 Poll.
const drawn time.Duration = -2

// run is the default runner: a job runs a seed-drawn time of up to 30 Poll
// and exits with a code and cycle count derived from its name, wherever it
// runs and however often.
func (h *simFleet) run(wi int) RunnerFunc {
	return func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
		if err := h.hold(ctx, wi, spec.Name, drawn); err != nil {
			return nil, err
		}
		return &RunOutput{Metrics: simMetrics(spec.Name)}, nil
	}
}

func simMetrics(name string) launcher.Metrics {
	sum := 0
	for _, r := range name {
		sum = sum*31 + int(r)
	}
	return launcher.Metrics{ExitCode: int64(sum % 3), Cycles: uint64(1000 + sum%9000)}
}

// settle waits until every live worker has done all the last item set off:
// each runner in a slot is at the gate, and no queued job could take a free
// slot. Runners newly at the gate are scheduled in a fixed order.
func (h *simFleet) settle() {
	for deadline := time.Now().Add(time.Minute); ; {
		if time.Now().After(deadline) {
			h.t.Fatal("harness: workers never settled")
		}
		h.mu.Lock()
		still := false
		for wi, n := range h.nodes {
			if n.down {
				continue
			}
			gated := 0
			for _, hd := range h.holds {
				if hd.wi == wi && hd.gen == n.gen && !hd.released && !hd.gone {
					gated++
				}
			}
			running, queued := 0, 0
			n.w.mu.Lock()
			for _, j := range n.w.jobs {
				switch j.state {
				case jobRunning:
					running++
				case jobQueued:
					queued++
				}
			}
			n.w.mu.Unlock()
			if len(n.w.slots) != gated || running != gated || queued > 0 && running < n.w.cfg.Slots {
				still = true
			}
		}
		var fresh []*simHold
		if !still {
			for _, hd := range h.holds {
				if !hd.queued && !hd.gone {
					hd.queued = true
					fresh = append(fresh, hd)
				}
			}
		}
		h.mu.Unlock()
		if still {
			runtime.Gosched()
			continue
		}
		slices.SortFunc(fresh, func(a, b *simHold) int {
			return cmpInts(a.wi, b.wi, strings.Compare(a.job, b.job))
		})
		for _, hd := range fresh {
			d := hd.d
			if d == drawn {
				d = time.Duration(h.rng.IntN(30)) * h.poll
			}
			if d >= 0 {
				hd := hd
				h.push(h.now.Add(d), func() {
					h.mu.Lock()
					if !hd.gone {
						hd.released = true
						close(hd.release)
					}
					h.mu.Unlock()
				})
			}
		}
		return
	}
}

func cmpInts(a, b, then int) int {
	if a != b {
		return a - b
	}
	return then
}

// RoundTrip is the in-memory network: a request to a live worker is served
// by its handler at once, with the scripted lease and steal faults applied;
// a long poll is answered without holding (the harness owns time); and
// wall-clock fields of the records in an event answer read zero.
func (h *simFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	var wi int
	if _, err := fmt.Sscanf(r.URL.Host, "sim-%d:1", &wi); err != nil || wi >= len(h.nodes) {
		return nil, fmt.Errorf("dial %s: no such host", r.URL.Host)
	}
	n := h.nodes[wi]
	if n.down || n.cut {
		return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	switch {
	case r.URL.Path == "/v1/jobs" && n.failLeases > 0:
		n.failLeases--
		http.Error(rec, "scripted lease failure", http.StatusInternalServerError)
		return rec.Result(), nil
	case r.URL.Path == "/v1/jobs" && n.refuse > 0:
		n.refuse--
		var specs []JobSpec
		json.NewDecoder(r.Body).Decode(&specs)
		codes := make([]int, len(specs))
		for i := range codes {
			codes[i] = http.StatusServiceUnavailable
		}
		json.NewEncoder(rec).Encode(codes)
		return rec.Result(), nil
	case r.Method == http.MethodDelete && n.loseSteals > 0:
		n.loseSteals--
		n.w.ServeHTTP(httptest.NewRecorder(), r)
		return nil, fmt.Errorf("read %s: connection reset by peer", r.URL.Host)
	case r.Method == http.MethodDelete && n.dupSteal:
		n.dupSteal = false
		n.w.ServeHTTP(httptest.NewRecorder(), r) // the first landing: its answer is lost
	case r.URL.Path == "/v1/status":
		n.statuses++
	case r.URL.Path == "/v1/events":
		q := r.URL.Query()
		q.Del("wait")
		r.URL.RawQuery = q.Encode()
	}
	n.w.ServeHTTP(rec, r)
	if r.URL.Path == "/v1/events" && rec.Code == http.StatusOK {
		var evs []Event
		if json.Unmarshal(rec.Body.Bytes(), &evs) == nil {
			for _, ev := range evs {
				if ev.Record != nil {
					ev.Record.WallMS, ev.Record.SimMIPS = 0, 0
				}
			}
			rec.Body.Reset()
			json.NewEncoder(rec.Body).Encode(evs)
		}
	}
	return rec.Result(), nil
}

// launch runs specs on the fleet to the end, on virtual time. A transport
// in opts (the chaos plan's) must send on to h, the in-memory network.
func (h *simFleet) launch(specs []JobSpec, opts CoordOptions) (*launcher.Summary, error) {
	opts.Workers, opts.Poll = nil, h.poll
	for wi := range h.nodes {
		opts.Workers = append(opts.Workers, h.addr(wi))
	}
	if opts.Transport == nil {
		opts.Transport = h
	}
	c, err := newCoordinator(specs, opts)
	if err != nil {
		return nil, err
	}
	c.lease = h.rng.Uint64() >> 1
	for _, w := range c.workers {
		w.client.http.Sleep = func(time.Duration) {}
	}
	h.c = c
	defer func() {
		for wi := range h.nodes {
			h.kill(wi)
		}
	}()

	var beat func()
	beat = func() {
		h.deliver(msg{kind: tick})
		h.push(h.now.Add(h.poll), beat)
	}
	beat()
	for !c.over {
		h.settle()
		for _, w := range h.whens {
			if w.cond != nil && w.cond() {
				w.cond = nil
				w.do()
			}
		}
		if h.now.Sub(h.epoch) > time.Hour {
			h.t.Fatalf("harness: the run did not end within an hour of virtual time")
		}
		next := slices.MinFunc(h.queue, func(a, b *simItem) int { return a.at.Compare(b.at) })
		h.now = next.at
		var ready []*simItem
		for _, it := range h.queue {
			if !it.at.After(h.now) {
				ready = append(ready, it)
			}
		}
		slices.SortFunc(ready, func(a, b *simItem) int { return a.seq - b.seq })
		it := ready[h.rng.IntN(len(ready))]
		h.queue = slices.DeleteFunc(h.queue, func(x *simItem) bool { return x == it })
		it.do()
	}
	if h.atEnd != nil {
		h.settle()
		h.atEnd()
	}
	return c.summary(h.now.Sub(h.epoch)), c.err
}

// deliver hands the step an input at the current virtual time and turns its
// actions into pending items: a request is answered after a seed-drawn
// latency below Poll (a late lease answer after the node's late), a poll no
// earlier than its after.
func (h *simFleet) deliver(in msg) {
	in.now = h.now
	for _, a := range h.c.step(in) {
		if h.c.write(a) {
			continue
		}
		sent := h.now
		if a.after.After(sent) {
			sent = a.after
		}
		a := a
		h.push(sent.Add(time.Duration(h.rng.IntN(10))*h.poll/10), func() {
			a.asked = sent
			ans := h.c.perform(context.Background(), a)
			if n := h.nodes[a.wi]; a.kind == lease && n.late > 0 && ans.err == nil {
				late := n.late
				n.late = 0
				n.lateThen()
				h.push(h.now.Add(late), func() { h.deliver(ans) })
				return
			}
			h.deliver(ans)
		})
	}
}

// simRun is what one harness run leaves behind.
type simRun struct {
	sum                    *launcher.Summary
	journal, manifest, log []byte
}

// simScript is a fault script: scripted worker deaths, restarts, refusals
// and lease-request failures, a lease answer that arrives after the lease
// TTL, the chaos plan's HTTP faults, and landings that fail once.
type simScript struct {
	seed              uint64
	kill, restart     int // a worker killed for good, one restarted in place (-1: none)
	killAt, restartAt time.Duration
	refuse            []int  // per worker: lease requests answered 503 per offer, first
	failLease         []int  // per worker: lease requests failed (500), first
	chaos             bool   // the chaos plan's HTTP faults, by seed
	failLand          string // a job whose first landing fails
	late              int    // a worker whose first lease answer outlasts the TTL (-1: none)
	lateFate          lateFate
}

// lateFate is what becomes of a worker once it has served the lease request
// whose answer arrives late.
type lateFate int

const (
	lateDies     lateFate = iota // killed for good
	lateCut                      // off the network past the answer, then back with its jobs
	lateRestarts                 // restarted in place
)

// lateBy is how late the late lease answer arrives: 1.5 lease TTLs at the
// harness's Poll.
const lateBy = 150 * 10 * time.Millisecond

// scriptFor draws a fault script from seed. Worker 0 is never killed, so a
// live worker is always left to finish the run.
func scriptFor(seed uint64, workers int) simScript {
	r := rand.New(rand.NewPCG(seed, 0xfa17))
	s := simScript{seed: seed, kill: -1, restart: -1, chaos: r.IntN(2) == 0,
		refuse: make([]int, workers), failLease: make([]int, workers)}
	if r.IntN(2) == 0 {
		s.kill, s.killAt = 1+r.IntN(workers-1), time.Duration(r.IntN(40))*10*time.Millisecond
	}
	if r.IntN(2) == 0 {
		s.restart, s.restartAt = r.IntN(workers), time.Duration(r.IntN(40))*10*time.Millisecond
	}
	for wi := range s.refuse {
		s.refuse[wi], s.failLease[wi] = r.IntN(3), r.IntN(3)
	}
	if r.IntN(2) == 0 {
		s.failLand = fmt.Sprintf("job-%d", r.IntN(simJobs))
	}
	s.late = -1
	if r.IntN(3) == 0 {
		s.late, s.lateFate = 1+r.IntN(workers-1), lateFate(r.IntN(3))
	}
	return s
}

const simWorkers, simJobs = 3, 8

// runScript runs simJobs jobs on simWorkers workers under script s (nil: a
// clean run) in the harness.
func runScript(t testing.TB, s *simScript) simRun {
	seed := uint64(0)
	if s != nil {
		seed = s.seed
	}
	h := newSimFleet(t, seed, simWorkers, func(h *simFleet, wi int) RunnerFunc { return h.run(wi) })
	dir := t.TempDir()
	jnl, err := launcher.OpenJournal(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	failed := map[string]bool{}
	opts := CoordOptions{Journal: jnl, Obs: obs.NewRegistry(), Log: &log,
		OnDone: func(ev Event) error {
			if s != nil && ev.Job == s.failLand && !failed[ev.Job] {
				failed[ev.Job] = true
				return fmt.Errorf("scripted landing failure")
			}
			return nil
		}}
	if s != nil {
		if s.chaos {
			plan := chaos.DefaultPlan(int64(s.seed))
			plan.DelayPM = 0 // latency is the harness's to draw
			opts.Transport = plan.Transport("fleet", h, obs.NewRegistry())
		}
		for wi := range h.nodes {
			h.nodes[wi].refuse, h.nodes[wi].failLeases = s.refuse[wi], s.failLease[wi]
		}
		if s.kill >= 0 {
			h.at(s.killAt, func() { h.kill(s.kill) })
		}
		if s.restart >= 0 {
			h.at(s.restartAt, func() { h.restart(s.restart) })
		}
		if wi := s.late; wi >= 0 {
			n := h.nodes[wi]
			n.late, n.lateThen = lateBy, map[lateFate]func(){
				lateDies:     func() { h.kill(wi) },
				lateCut:      func() { n.cut = true; h.push(h.now.Add(lateBy+h.poll), func() { n.cut = false }) },
				lateRestarts: func() { h.restart(wi) },
			}[s.lateFate]
		}
	}
	specs := specsNamed(jobNames(simJobs)...)
	for i := range specs {
		specs[i].Retries = 1 // a failed landing leases the job again
	}
	sum, err := h.launch(specs, opts)
	if err != nil {
		t.Fatalf("seed %d: launch: %v\n%s", seed, err, log.String())
	}
	jnl.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	return simRun{sum: sum, journal: journal, manifest: launcher.EncodeManifest(sum), log: log.Bytes()}
}

// checkReplay is the determinism property: a seed's run, twice, gives a
// byte-identical journal, manifest and coordinator log, and every job ends
// with the clean run's status, exit code and cycles. It returns the run.
func checkReplay(t testing.TB, clean simRun, s simScript) simRun {
	a, b := runScript(t, &s), runScript(t, &s)
	for _, f := range []struct {
		what string
		a, b []byte
	}{{"journal", a.journal, b.journal}, {"manifest", a.manifest, b.manifest}, {"coordinator log", a.log, b.log}} {
		if !bytes.Equal(f.a, f.b) {
			t.Fatalf("seed %d (%+v): two runs wrote different %ss:\n%s\n----\n%s", s.seed, s, f.what, f.a, f.b)
		}
	}
	for i, want := range clean.sum.Jobs {
		got := a.sum.Jobs[i]
		if got.Name != want.Name || got.Status != want.Status || got.Metrics.ExitCode != want.Metrics.ExitCode || got.Metrics.Cycles != want.Metrics.Cycles {
			t.Fatalf("seed %d (%+v): %s ended %s exit=%d cycles=%d, the clean run %s exit=%d cycles=%d\n%s",
				s.seed, s, got.Name, got.Status, got.Metrics.ExitCode, got.Metrics.Cycles,
				want.Status, want.Metrics.ExitCode, want.Metrics.Cycles, a.log)
		}
	}
	return a
}

// TestFleetReplaysFromSeed runs the determinism property over 100 seeds of
// fault scripts and delivery orders, and pins each seed's run:
// testdata/fleet_seeds.json holds the SHA-256 of its journal, manifest and
// coordinator log, so a change to the coordinator that makes any decision
// differently, in any seed, fails here. On a mismatch the test logs every
// digest it got.
func TestFleetReplaysFromSeed(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fleet_seeds.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	clean := runScript(t, nil)
	for _, r := range clean.sum.Jobs {
		if r.Status != launcher.StatusOK {
			t.Fatalf("clean run: %s ended %s (%s)", r.Name, r.Status, r.Err)
		}
	}
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	seen, got, moved := map[string]int{}, map[string]string{}, false
	for seed := 1; seed <= seeds; seed++ {
		run := checkReplay(t, clean, scriptFor(uint64(seed), simWorkers))
		for _, what := range []string{"lease expired", "restarted", "quarantining", " stole "} {
			seen[what] += bytes.Count(run.log, []byte(what))
		}
		sum := sha256.Sum256(slices.Concat(run.journal, run.manifest, run.log))
		k := strconv.Itoa(seed)
		if got[k] = hex.EncodeToString(sum[:]); got[k] != pinned[k] {
			t.Errorf("seed %d: run digest %s, pinned %s", seed, got[k], pinned[k])
			moved = true
		}
	}
	if moved {
		all, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("got:\n%s", all)
	}
	t.Logf("%d seeds, coordinator log lines: %v", seeds, seen)
}

// TestFleetLeaseExpiryBeforeLeaseAnswer: worker 1 serves its first lease request,
// then dies, drops off the network past the answer (and comes back with its
// jobs run), or restarts; the answer reaches the coordinator 1.5 lease TTLs
// later. A dead or cut-off worker has forfeited its jobs by then, offers
// included, so the late 202s lease nothing; a restarted one's are re-leased
// when it answers 410. Every job ends as in the clean run, and each seed
// replays.
func TestFleetLeaseExpiryBeforeLeaseAnswer(t *testing.T) {
	clean := runScript(t, nil)
	for _, c := range []struct {
		fate lateFate
		logs *regexp.Regexp
	}{
		{lateDies, regexp.MustCompile(`worker sim-1:1 lease expired`)},
		{lateCut, regexp.MustCompile(`worker sim-1:1 lease expired`)},
		{lateRestarts, regexp.MustCompile(`worker sim-1:1 restarted`)},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			s := simScript{seed: seed, kill: -1, restart: -1, late: 1, lateFate: c.fate,
				refuse: make([]int, simWorkers), failLease: make([]int, simWorkers)}
			if run := checkReplay(t, clean, s); !c.logs.Match(run.log) {
				t.Fatalf("fate %d, seed %d: worker 1 gave nothing up (no %q):\n%s", c.fate, seed, c.logs, run.log)
			}
		}
	}
}

// logAt is a coordinator log that notes the virtual time at which a line
// containing what is first written.
type logAt struct {
	bytes.Buffer
	h    *simFleet
	what string
	at   time.Time
}

func (l *logAt) Write(p []byte) (int, error) {
	if l.at.IsZero() && bytes.Contains(p, []byte(l.what)) {
		l.at = l.h.now
	}
	return l.Buffer.Write(p)
}

// TestFleetRestartCaughtAtTheLog: worker 1 restarts in place while it holds
// a lease, its new log either empty (the coordinator had read nothing of the
// old one) or as long as the part of the old log the coordinator had read.
// Either way the coordinator's cursor is outside the new log, so the restart
// is caught at the next poll: logged "restarted" within three Polls of
// virtual time (the pacing of the next poll, then the latencies of the poll
// and the re-registration probe, each under one Poll). Every job ends as in
// a clean run, and no lease expires.
func TestFleetRestartCaughtAtTheLog(t *testing.T) {
	for _, fill := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			h := newSimFleet(t, seed, 2, func(h *simFleet, wi int) RunnerFunc { return h.run(wi) })
			// read counts the events of worker 1's log below the coordinator's cursor.
			read := func() int {
				w, cursor := h.nodes[1].w, h.c.workers[1].cursor
				w.mu.Lock()
				defer w.mu.Unlock()
				return len(slices.DeleteFunc(slices.Clone(w.events), func(ev Event) bool { return ev.Seq >= cursor }))
			}
			var restartAt time.Time
			h.when(func() bool {
				holds := slices.ContainsFunc(h.c.order, func(n string) bool {
					j := h.c.jobs[n]
					return (j.phase == queued || j.phase == running) && j.worker == 1 && !j.out
				})
				return h.c.begun && holds && (read() > 0) == fill
			}, func() {
				k := read()
				h.restart(1)
				for range k { // another coordinator's events, say
					h.nodes[1].w.emit(&wjob{}, Event{Type: EventCheckpoint, Job: "elsewhere"})
				}
				restartAt = h.now
			})
			log := &logAt{h: h, what: "worker sim-1:1 restarted"}
			reg := obs.NewRegistry()
			sum, err := h.launch(specsNamed(jobNames(4)...), CoordOptions{Obs: reg, Log: log})
			if err != nil {
				t.Fatalf("fill %v, seed %d: launch: %v", fill, seed, err)
			}
			if restartAt.IsZero() {
				t.Fatalf("fill %v, seed %d: worker 1 never held a lease in the state to restart in:\n%s", fill, seed, log.String())
			}
			if log.at.IsZero() || log.at.Sub(restartAt) >= 3*h.poll {
				t.Fatalf("fill %v, seed %d: restart at %s not logged within 3 Polls:\n%s",
					fill, seed, restartAt.Sub(h.epoch), log.String())
			}
			for _, r := range sum.Jobs {
				if want := simMetrics(r.Name); r.Status != launcher.StatusOK || r.Metrics != want {
					t.Errorf("fill %v, seed %d: %s ended %s %+v, want ok %+v", fill, seed, r.Name, r.Status, r.Metrics, want)
				}
			}
			if n := reg.Counter("remote_lease_expiries_total").Value(); n != 0 {
				t.Errorf("fill %v, seed %d: %d lease expiries, want none: a restart is no expiry", fill, seed, n)
			}
		}
	}
}

// TestFleetStealAnswerLostEndsAsASteal: worker 1 goes idle while worker 0
// runs one long job and holds another queued, so worker 1 steals the queued
// one. The steal's answer is lost after worker 0 gave the job up: dropped
// once (the request is retried), dropped on every attempt (the steal is
// asked again a Poll later), or the DELETE lands twice and the second
// answer, 404, is the one seen. Each ends as one steal, every job ok, and
// no status request after registration.
func TestFleetStealAnswerLostEndsAsASteal(t *testing.T) {
	for _, fault := range []struct {
		what string
		lose int
		dup  bool
	}{{"dropped once", 1, false}, {"dropped on every attempt", clientRetries + 1, false}, {"duplicated", 0, true}} {
		h := newSimFleet(t, 1, 2, func(h *simFleet, wi int) RunnerFunc {
			return func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				d := h.poll
				if wi == 0 {
					d = 50 * h.poll
				}
				if err := h.hold(ctx, wi, spec.Name, d); err != nil {
					return nil, err
				}
				return &RunOutput{Metrics: simMetrics(spec.Name)}, nil
			}
		})
		h.nodes[0].loseSteals, h.nodes[0].dupSteal = fault.lose, fault.dup
		var log bytes.Buffer
		reg := obs.NewRegistry()
		sum, err := h.launch(specsNamed(jobNames(4)...), CoordOptions{Obs: reg, Log: &log})
		if err != nil {
			t.Fatalf("%s: launch: %v", fault.what, err)
		}
		if !strings.Contains(log.String(), "worker sim-1:1 stole job-2 from sim-0:1") {
			t.Errorf("%s: job-2 was not stolen:\n%s", fault.what, log.String())
		}
		for _, r := range sum.Jobs {
			if want := simMetrics(r.Name); r.Status != launcher.StatusOK || r.Metrics != want {
				t.Errorf("%s: %s ended %s %+v, want ok %+v", fault.what, r.Name, r.Status, r.Metrics, want)
			}
		}
		if n := reg.Counter("remote_steals_total").Value(); n != 1 {
			t.Errorf("%s: %d steals, want 1", fault.what, n)
		}
		for wi, n := range h.nodes {
			if n.statuses != 1 {
				t.Errorf("%s: worker %d was asked its status %d times, want once (registration)", fault.what, wi, n.statuses)
			}
		}
	}
}

// queued counts the jobs worker wi holds leased and not started.
func (h *simFleet) queued(wi int) int {
	n := h.nodes[wi]
	if n.down {
		return 0
	}
	n.w.mu.Lock()
	defer n.w.mu.Unlock()
	q := 0
	for _, j := range n.w.jobs {
		if j.state == jobQueued {
			q++
		}
	}
	return q
}

// TestFleetCancelTakesBackQueuedLeases: the run is cancelled while both
// workers hold jobs queued behind the one they run. The cancelled
// coordinator takes back every lease not started before it returns, so no
// worker holds a queued job then, and none starts one after the run:
// -resume runs such a job once, not twice. No job is journaled done by the
// cancel, and each seed replays byte for byte. With worker 1 cut off the
// network at the cancel, the run waits one lease TTL for it, no longer.
func TestFleetCancelTakesBackQueuedLeases(t *testing.T) {
	run := func(seed uint64, cut bool) simRun {
		h := newSimFleet(t, seed, 2, func(h *simFleet, wi int) RunnerFunc { return h.run(wi) })
		var cancelAt time.Time
		h.when(func() bool { return h.c.begun && h.queued(0) > 0 && h.queued(1) > 0 }, func() {
			h.nodes[1].cut, cancelAt = cut, h.now
			h.deliver(msg{kind: end})
		})
		h.atEnd = func() {
			if !h.c.ended {
				t.Fatalf("seed %d: the run ended without the cancel", seed)
			}
			for wi := range h.nodes {
				if q := h.queued(wi); q > 0 && !(cut && wi == 1) {
					t.Errorf("seed %d: worker %d still holds %d queued job(s) after the cancelled run", seed, wi, q)
				}
			}
			if ttl := leaseHeartbeats * h.poll; h.now.Sub(cancelAt) > ttl+h.poll || cut && h.now.Sub(cancelAt) < ttl {
				t.Errorf("seed %d (cut %v): the run ended %s after the cancel; the lease TTL is %s", seed, cut, h.now.Sub(cancelAt), ttl)
			}
		}
		dir := t.TempDir()
		jnl, err := launcher.OpenJournal(filepath.Join(dir, "j"))
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		sum, err := h.launch(specsNamed(jobNames(simJobs)...), CoordOptions{Journal: jnl, Obs: obs.NewRegistry(), Log: &log,
			OnDone: func(Event) error { return nil }})
		if err != nil {
			t.Fatalf("seed %d: launch: %v", seed, err)
		}
		jnl.Close()
		journal, err := os.ReadFile(filepath.Join(dir, "j"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sum.Jobs {
			if r.Status != launcher.StatusOK && r.Status != launcher.StatusCancelled {
				t.Errorf("seed %d: %s ended %s (%s); a cancel journals nothing but what finished before it", seed, r.Name, r.Status, r.Err)
			}
		}
		return simRun{sum: sum, journal: journal, manifest: launcher.EncodeManifest(sum), log: log.Bytes()}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := run(seed, seed > 15), run(seed, seed > 15)
		if !bytes.Equal(a.journal, b.journal) || !bytes.Equal(a.manifest, b.manifest) || !bytes.Equal(a.log, b.log) {
			t.Fatalf("seed %d: two cancelled runs differ:\n%s\n----\n%s", seed, a.log, b.log)
		}
		if !bytes.Contains(a.log, []byte("cancelled — taking back queued leases")) {
			t.Fatalf("seed %d: the cancel was not logged:\n%s", seed, a.log)
		}
	}
}

// FuzzFleetSchedule drives the harness over random fault scripts and
// delivery orders and checks the determinism property.
func FuzzFleetSchedule(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42} {
		f.Add(seed, uint8(0), uint8(0))
	}
	clean := runScript(f, nil)
	f.Fuzz(func(t *testing.T, seed uint64, refuse, fail uint8) {
		s := scriptFor(seed, simWorkers)
		s.refuse[int(refuse)%simWorkers] += int(refuse % 4)
		s.failLease[int(fail)%simWorkers] += int(fail % 4)
		checkReplay(t, clean, s)
	})
}
