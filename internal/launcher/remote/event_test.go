package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/chaos"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// Tests of the event-driven fleet protocol: the long-poll, the array lease,
// slot order, and landing off the coordinator loop. Their time bounds are
// one-sided and generous — "well under a 2 s Poll", "within 5 s of a 30 s
// wait" — so a slow host cannot fail them.

const prompt = 5 * time.Second // "promptly": far below every wait used here

func specsNamed(names ...string) []JobSpec {
	specs := make([]JobSpec, len(names))
	for i, name := range names {
		specs[i] = JobSpec{Name: name, Sim: "qemu", Bin: "sha256:aa"}
	}
	return specs
}

func jobNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	return names
}

// within fails the test unless done closes within prompt.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(prompt):
		t.Fatalf("%s did not happen within %s", what, prompt)
	}
}

// TestLaunchDoesNotWaitForPoll: with instantly-finishing jobs the whole
// launch is over long before the first Poll tick — Poll is not event
// latency.
func TestLaunchDoesNotWaitForPoll(t *testing.T) {
	addrs, _, _ := fleet(t, 2, func(int) WorkerConfig {
		return WorkerConfig{Runner: okRunner(7), Slots: 1, Obs: obs.NewRegistry()}
	})
	const poll = 2 * time.Second
	landed := atomic.Int64{}
	start := time.Now()
	sum, err := Launch(context.Background(), specsNamed(jobNames(6)...), CoordOptions{
		Workers: addrs, Poll: poll, Obs: obs.NewRegistry(),
		OnDone: func(Event) error { landed.Add(1); return nil },
	})
	if err != nil || sum.Err() != nil {
		t.Fatalf("launch: %v / %v", err, sum.Err())
	}
	if took := time.Since(start); took > poll/2 {
		t.Errorf("launch of instant jobs took %s with Poll = %s: events waited for a tick", took, poll)
	}
	if landed.Load() != 6 {
		t.Errorf("OnDone ran %d times for 6 jobs", landed.Load())
	}
}

// TestLongPoll: a held poll answers on a new event, on cancellation and on
// Worker.Close; without wait the answer is immediate.
func TestLongPoll(t *testing.T) {
	w := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 1, Obs: obs.NewRegistry()})
	defer w.Close()
	srv := httptest.NewServer(w)
	defer srv.Close()
	c := NewWorkerClient(srv.Listener.Addr().String(), 0)
	const wait = 30 * time.Second

	poll := func(ctx context.Context, since int, wait time.Duration) (<-chan struct{}, *[]Event, *error) {
		done := make(chan struct{})
		var evs []Event
		var err error
		go func() {
			defer close(done)
			evs, err = c.Events(ctx, since, wait)
		}()
		return done, &evs, &err
	}

	// No wait: today's immediate (empty) answer.
	done, evs, err := poll(context.Background(), 0, 0)
	within(t, done, "the answer to a poll without wait")
	if *err != nil || len(*evs) != 0 {
		t.Fatalf("poll without wait = %v, %v; want empty", *evs, *err)
	}

	// A held poll answers when an event appears.
	done, evs, err = poll(context.Background(), 0, wait)
	select {
	case <-done:
		t.Fatalf("a held poll answered with nothing to say: %v, %v", *evs, *err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.Submit(context.Background(), specsNamed("a")[0]); err != nil {
		t.Fatal(err)
	}
	within(t, done, "the answer to a held poll after an event")
	if *err != nil || len(*evs) == 0 || (*evs)[0].Type != EventStart {
		t.Fatalf("held poll = %v, %v; want the start event", *evs, *err)
	}

	// ... and one that has events to report is never held.
	done, evs, err = poll(context.Background(), 0, wait)
	within(t, done, "the answer to a poll with events behind the cursor")
	if *err != nil || len(*evs) == 0 {
		t.Fatalf("poll behind the log = %v, %v", *evs, *err)
	}
	end := (*evs)[len(*evs)-1].Seq + 1
	for deadline := time.Now().Add(prompt); (*evs)[len(*evs)-1].Type != EventDone; {
		if time.Now().After(deadline) {
			t.Fatal("job a never finished")
		}
		if *evs, *err = c.Events(context.Background(), end, wait); *err != nil || len(*evs) == 0 {
			t.Fatalf("poll for a's done event = %v, %v", *evs, *err)
		}
		end = (*evs)[len(*evs)-1].Seq + 1
	}

	// Cancelling the request ends it.
	ctx, cancel := context.WithCancel(context.Background())
	done, _, err = poll(ctx, end, wait)
	time.Sleep(20 * time.Millisecond)
	cancel()
	within(t, done, "the end of a cancelled poll")
	if !errors.Is(*err, context.Canceled) {
		t.Fatalf("cancelled poll err = %v", *err)
	}

	// Worker.Close answers a held poll (empty), and later ones at once.
	done, evs, err = poll(context.Background(), end, wait)
	time.Sleep(20 * time.Millisecond)
	w.Close()
	within(t, done, "the answer to a held poll after Worker.Close")
	if *err != nil || len(*evs) != 0 {
		t.Fatalf("poll across Close = %v, %v; want empty", *evs, *err)
	}
	done, _, _ = poll(context.Background(), end, wait)
	within(t, done, "the answer of a closed worker")
}

// TestCoordinatorPacesWorkerThatIgnoresWait: a worker that answers every
// poll at once (it predates wait) is polled once per Poll, not in a spin.
func TestCoordinatorPacesWorkerThatIgnoresWait(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	w := NewWorker(WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
		Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &RunOutput{}, nil
		})})
	defer w.Close()
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/events" {
			polls.Add(1)
			q := r.URL.Query()
			q.Del("wait")
			r.URL.RawQuery = q.Encode()
		}
		w.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	const poll = 40 * time.Millisecond
	done := make(chan struct{})
	var sum *launcher.Summary
	go func() {
		defer close(done)
		sum, _ = Launch(context.Background(), specsNamed("held"), CoordOptions{
			Workers: []string{srv.Listener.Addr().String()}, Poll: poll, Obs: obs.NewRegistry()})
	}()
	within(t, started, "the job's start")
	begin := time.Now()
	time.Sleep(10 * poll)
	close(release)
	within(t, done, "the launch's end")
	intervals := int64(time.Since(begin)/poll) + 1
	// One poll per interval, plus the two that carry the start and the done
	// event (an answer with events in it is followed up at once).
	if got := polls.Load(); got > 2*intervals {
		t.Errorf("%d polls in %d Poll intervals: the coordinator spins on a worker that ignores wait", got, intervals)
	}
	if sum == nil || sum.Err() != nil {
		t.Fatalf("summary = %+v", sum)
	}
}

// leaseTap fronts a worker and lets a test rewrite what POST /v1/jobs
// answers: answer gets the decoded specs and may return a status (non-zero
// = answer that and stop) or per-spec codes to append to the worker's real
// answer for the first keep specs.
type leaseTap struct {
	w      *Worker
	answer func(specs []JobSpec) (status, keep int, extra []int)
}

func (l *leaseTap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/jobs" {
		l.w.ServeHTTP(rw, r)
		return
	}
	var specs []JobSpec
	if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
		http.Error(rw, "bad body", http.StatusBadRequest)
		return
	}
	status, keep, extra := l.answer(specs)
	if status != 0 {
		http.Error(rw, "injected", status)
		return
	}
	body, _ := json.Marshal(specs[:keep])
	rec := httptest.NewRecorder()
	l.w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var codes []int
	json.Unmarshal(rec.Body.Bytes(), &codes)
	json.NewEncoder(rw).Encode(append(codes, extra...))
}

// tappedFleet is a two-worker fleet whose worker 0 sits behind a leaseTap;
// ran records which worker executed each job. Runners wait for gate.
func tappedFleet(t *testing.T, gate <-chan struct{}, answer func([]JobSpec) (int, int, []int)) (addrs []string, workers []*Worker, ran *sync.Map) {
	ran = &sync.Map{}
	for i := 0; i < 2; i++ {
		i := i
		w := NewWorker(WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				ran.Store(spec.Name, i)
				return &RunOutput{}, nil
			})})
		var h http.Handler = w
		if i == 0 {
			h = &leaseTap{w: w, answer: answer}
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		workers = append(workers, w)
		addrs = append(addrs, srv.Listener.Addr().String())
	}
	return addrs, workers, ran
}

// TestBatchedLeaseMixedAnswer: worker 0 is offered job-0, job-2 and job-4 in
// one request and answers 202, 409 (it holds job-2 already), 503. The first
// two are its leases; the third is re-assigned, and ends up on worker 1.
func TestBatchedLeaseMixedAnswer(t *testing.T) {
	gate := make(chan struct{})
	var batches atomic.Int64
	addrs, workers, ran := tappedFleet(t, gate, func(specs []JobSpec) (int, int, []int) {
		if len(specs) == 3 {
			batches.Add(1)
			return 0, 2, []int{http.StatusServiceUnavailable}
		}
		if specs[0].Name == "job-4" {
			return 0, 0, []int{http.StatusServiceUnavailable}
		}
		return 0, len(specs), nil
	})
	// Worker 0 already holds job-2 (its runner is gated, so the lease is live).
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(specsNamed("job-2"))
	workers[0].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if got := strings.TrimSpace(rec.Body.String()); got != "[202]" {
		t.Fatalf("pre-lease of job-2 answered %s", got)
	}

	reg := obs.NewRegistry()
	var log bytes.Buffer
	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), specsNamed(jobNames(5)...), CoordOptions{
			Workers: addrs, Poll: 5 * time.Millisecond, Obs: reg, Log: &log})
	}()
	for deadline := time.Now().Add(prompt); reg.Counter("remote_leases_total").Value() < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 5 leases went out:\n%s", reg.Counter("remote_leases_total").Value(), log.String())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	within(t, done, "the launch's end")
	if lerr != nil || sum.Err() != nil {
		t.Fatalf("launch: %v / %v\n%s", lerr, sum.Err(), log.String())
	}
	if batches.Load() != 1 {
		t.Errorf("worker 0 saw %d three-job requests, want 1", batches.Load())
	}
	want := map[string]int{"job-0": 0, "job-1": 1, "job-2": 0, "job-3": 1, "job-4": 1}
	for name, wi := range want {
		if got, _ := ran.Load(name); got != wi {
			t.Errorf("%s ran on worker %v, want %d", name, got, wi)
		}
	}
	if got := reg.Counter("remote_leases_total").Value(); got != 5 {
		t.Errorf("remote_leases_total = %d, want 5 (one per job)", got)
	}
}

// TestBatchedLeaseRequestFails: a lease request that fails outright costs
// the worker one fault, and every job of it goes through assign.
func TestBatchedLeaseRequestFails(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	addrs, _, ran := tappedFleet(t, gate, func(specs []JobSpec) (int, int, []int) {
		if len(specs) > 1 {
			return http.StatusInternalServerError, 0, nil
		}
		return 0, 1, nil
	})
	reg := obs.NewRegistry()
	var log bytes.Buffer
	sum, err := Launch(context.Background(), specsNamed(jobNames(4)...), CoordOptions{
		Workers: addrs, Poll: 5 * time.Millisecond, Obs: reg, Log: &log})
	if err != nil || sum.Err() != nil {
		t.Fatalf("launch: %v / %v\n%s", err, sum.Err(), log.String())
	}
	if n := strings.Count(log.String(), "refused a lease of 2 job(s)"); n != 1 {
		t.Errorf("the failed request was charged %d times, want once:\n%s", n, log.String())
	}
	if n := strings.Count(log.String(), "refused lease for"); n != 0 {
		t.Errorf("%d per-job refusals logged after the request failed, want none:\n%s", n, log.String())
	}
	for _, name := range jobNames(4) {
		if _, ok := ran.Load(name); !ok {
			t.Errorf("%s never ran", name)
		}
	}
	if got := reg.Counter("remote_leases_total").Value(); got != 4 {
		t.Errorf("remote_leases_total = %d, want 4", got)
	}
	if got := reg.Counter("remote_worker_quarantines_total").Value(); got != 0 {
		t.Errorf("one failed request quarantined the worker")
	}
}

// TestWorkerStartsLeasesInRequestOrder: five leases of one request on a
// single-slot worker run in array order, every time.
func TestWorkerStartsLeasesInRequestOrder(t *testing.T) {
	names := jobNames(5)
	for round := 0; round < 20; round++ {
		var mu sync.Mutex
		var order []string
		w := NewWorker(WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				mu.Lock()
				order = append(order, spec.Name)
				mu.Unlock()
				runtime.Gosched()
				return &RunOutput{}, nil
			})})
		srv := httptest.NewServer(w)
		c := NewWorkerClient(srv.Listener.Addr().String(), 0)
		codes, err := c.Lease(context.Background(), specsNamed(names...))
		if err != nil || !reflect.DeepEqual(codes, []int{202, 202, 202, 202, 202}) {
			t.Fatalf("lease = %v, %v", codes, err)
		}
		for seen, deadline := 0, time.Now().Add(prompt); seen < 2*len(names); {
			if time.Now().After(deadline) {
				t.Fatal("the five jobs never finished")
			}
			evs, err := c.Events(context.Background(), seen, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			seen += len(evs)
		}
		srv.Close()
		w.Close()
		if !reflect.DeepEqual(order, names) {
			t.Fatalf("round %d: jobs started in order %v, want %v", round, order, names)
		}
	}
}

// TestPlacementMatchesSequentialAssign: leasing 5 000 jobs to 8 workers (two
// quarantined, one dead) in one pass puts every job where assigning them
// one at a time does, in linear time and one request per worker.
func TestPlacementMatchesSequentialAssign(t *testing.T) {
	const nJobs, nWorkers = 5000, 8
	var requests atomic.Int64
	accept := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		requests.Add(1)
		var specs []JobSpec
		if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
			return nil, err
		}
		codes := make([]int, len(specs))
		for i := range codes {
			codes[i] = http.StatusAccepted
		}
		body, _ := json.Marshal(codes)
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
	})
	build := func(n int) *coordinator {
		c := &coordinator{opts: CoordOptions{Log: io.Discard}, jobs: map[string]*cjob{}}
		for i := 0; i < nWorkers; i++ {
			cl := NewWorkerClient(fmt.Sprintf("w%d:1", i), 0)
			cl.SetTransport(accept)
			c.workers = append(c.workers, &cworker{client: cl, alive: i != 3, quarantined: i == 1 || i == 6})
		}
		for _, spec := range specsNamed(jobNames(n)...) {
			c.order = append(c.order, spec.Name)
			c.jobs[spec.Name] = &cjob{spec: spec, worker: -1, hedge: -1}
		}
		return c
	}

	c := build(nJobs)
	start := time.Now()
	c.leaseAll(context.Background())
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("leasing %d jobs took %s", nJobs, took)
	}
	if got := requests.Load(); got != 5 {
		t.Errorf("%d lease requests for 5 healthy workers", got)
	}
	for _, wi := range []int{1, 3, 6} {
		if n := c.outstanding(wi); n != 0 {
			t.Errorf("worker %d (dead or quarantined) was leased %d jobs", wi, n)
		}
	}

	// Sequential assign is quadratic (a scan of every job per candidate), so
	// it replays a prefix: the rule is greedy, hence prefix-independent.
	seq := build(600)
	for _, name := range seq.order {
		j := seq.jobs[name]
		seq.assign(context.Background(), j)
		if want := c.jobs[name].worker; j.worker != want || want == -1 {
			t.Fatalf("%s: assign chose worker %d, the one-pass placement %d", name, j.worker, want)
		}
	}

	// With every healthy worker gone the quarantined ones are the fallback.
	q := build(10)
	for _, wi := range []int{0, 2, 4, 5, 7} {
		q.workers[wi].alive = false
	}
	q.leaseAll(context.Background())
	if a, b := q.outstanding(1), q.outstanding(6); a != 5 || b != 5 {
		t.Errorf("quarantined fallback leased %d + %d of 10 jobs, want 5 + 5", a, b)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHedgeDoneDuringLandingIsIgnored: the owner's copy finishes and its
// files are landing when the hedge reports done too; the job lands once and
// is journaled once.
func TestHedgeDoneDuringLandingIsIgnored(t *testing.T) {
	ownerGo, hedgeGo := make(chan struct{}), make(chan struct{})
	hedgeRunning := make(chan struct{})
	var consumed atomic.Bool // the coordinator polled worker 1 past its done event
	mk := func(i int) *Worker {
		return NewWorker(WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				wait := ownerGo
				if i == 1 {
					close(hedgeRunning)
					wait = hedgeGo
				}
				select {
				case <-wait:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 5}}, nil
			})})
	}
	w0, w1 := mk(0), mk(1)
	srv0 := httptest.NewServer(w0)
	srv1 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// Worker 1's log is start(0), done(1): a poll from cursor 2 means the
		// coordinator has handled both.
		if n, _ := strconv.Atoi(r.URL.Query().Get("since")); r.URL.Path == "/v1/events" && n >= 2 {
			consumed.Store(true)
		}
		w1.ServeHTTP(rw, r)
	}))
	for _, c := range []func(){w1.Close, w0.Close, srv1.Close, srv0.Close} {
		t.Cleanup(c)
	}

	dir := t.TempDir()
	jnl, err := launcher.OpenJournal(filepath.Join(dir, "m.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	landing, landGate := make(chan struct{}), make(chan struct{})
	var lands atomic.Int64
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var sum *launcher.Summary
	go func() {
		defer close(done)
		sum, _ = Launch(context.Background(), specsNamed("twice"), CoordOptions{
			Workers: []string{srv0.Listener.Addr().String(), srv1.Listener.Addr().String()},
			Poll:    5 * time.Millisecond, HedgeAfter: 10 * time.Millisecond, Journal: jnl, Obs: reg,
			OnDone: func(Event) error {
				if lands.Add(1) == 1 {
					close(landing)
				}
				<-landGate
				return nil
			},
		})
	}()
	within(t, hedgeRunning, "the hedge")
	close(ownerGo)
	within(t, landing, "the owner's landing")
	close(hedgeGo)
	for deadline := time.Now().Add(prompt); !consumed.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never read the hedge's done event")
		}
		time.Sleep(time.Millisecond)
	}
	close(landGate)
	within(t, done, "the launch's end")
	if sum == nil || sum.Err() != nil || sum.Jobs[0].Metrics.Cycles != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if lands.Load() != 1 {
		t.Errorf("OnDone ran %d times, want once", lands.Load())
	}
	jnl.Close()
	recs, _, err := launcher.ReadJournal(filepath.Join(dir, "m.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dones := 0
	for _, r := range recs {
		if r.Event == launcher.EventDone {
			dones++
		}
	}
	if dones != 1 {
		t.Errorf("journal has %d done records, want 1", dones)
	}
}

// TestCancelMidLandingLeavesNothingBehind: cancelling the run while a job's
// files are landing returns with the job cancelled (no done record: -resume
// runs it again) and with every poller and lander gone.
func TestCancelMidLandingLeavesNothingBehind(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	before := runtime.NumGoroutine()

	var closers []func()
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 1, Obs: obs.NewRegistry()})
		srv := httptest.NewServer(w)
		closers = append(closers, srv.Close, w.Close)
		addrs = append(addrs, srv.Listener.Addr().String())
	}
	dir := t.TempDir()
	jnl, err := launcher.OpenJournal(filepath.Join(dir, "m.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landing := make(chan struct{}, 8)
	done := make(chan struct{})
	var sum *launcher.Summary
	go func() {
		defer close(done)
		sum, _ = Launch(ctx, specsNamed(jobNames(4)...), CoordOptions{
			Workers: addrs, Poll: 5 * time.Millisecond, Journal: jnl, Obs: obs.NewRegistry(),
			OnDone: func(Event) error {
				landing <- struct{}{}
				<-ctx.Done() // a fetch cut short by the cancellation
				return ctx.Err()
			},
		})
	}()
	select {
	case <-landing:
	case <-time.After(prompt):
		t.Fatal("no landing began")
	}
	cancel()
	within(t, done, "the cancelled launch's return")
	for _, res := range sum.Jobs {
		if res.Status != launcher.StatusCancelled {
			t.Errorf("%s: status %s, want cancelled", res.Name, res.Status)
		}
	}
	jnl.Close()
	recs, _, err := launcher.ReadJournal(filepath.Join(dir, "m.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Event == launcher.EventDone {
			t.Errorf("journal has a done record for %s", r.Job)
		}
	}

	for _, c := range closers {
		c()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(prompt); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// firstPutFails is a cas.Remote whose first PutBlob of each digest fails.
type firstPutFails struct {
	cas.Remote
	mu   sync.Mutex
	seen map[string]bool
}

func (f *firstPutFails) PutBlob(ctx context.Context, digest string, data []byte) error {
	f.mu.Lock()
	first := !f.seen[digest]
	f.seen[digest] = true
	f.mu.Unlock()
	if first {
		return fmt.Errorf("injected: PUT %.12s dropped", digest)
	}
	return f.Remote.PutBlob(ctx, digest, data)
}

// TestArtifactRunnerCacheTraffic: a dropped PUT does not fail the attempt
// (publishes retry, like the coordinator's), console and outputs leave no
// copy in the worker's store, a fetched artifact does (write-back), and a
// corrupt local artifact heals from the shared cache — counted in the
// runner's registry.
func TestArtifactRunnerCacheTraffic(t *testing.T) {
	hub, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(casremote.NewServer(hub))
	defer srv.Close()
	rem := &firstPutFails{Remote: casremote.NewClient(srv.URL, 0), seen: map[string]bool{}}

	bin, err := os.ReadFile(bareBin(t))
	if err != nil {
		t.Fatal(err)
	}
	binDigest, err := hub.Put(bin)
	if err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	store, err := cas.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := &ArtifactRunner{Store: store, Remote: rem, Obs: reg}
	spec := JobSpec{Name: "bare", Sim: "qemu", Bin: binDigest}

	out, err := r.Run(context.Background(), spec, func(Event) {})
	if err != nil {
		t.Fatalf("run with a dropped first PUT: %v", err)
	}
	if _, err := hub.Get(out.Console); err != nil {
		t.Errorf("console not in the shared cache: %v", err)
	}
	if _, err := store.Get(out.Console); !errors.Is(err, cas.ErrNotFound) {
		t.Errorf("worker store holds the console (err = %v); nothing reads it back", err)
	}
	if _, err := store.Get(binDigest); err != nil {
		t.Errorf("fetched boot binary was not written back: %v", err)
	}

	if err := chaos.PlantCorruptBlob(storeDir, binDigest); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), spec, func(Event) {}); err != nil {
		t.Fatalf("run over a corrupt local artifact: %v", err)
	}
	if got := reg.Counter("cas_blobs_healed_total").Value(); got != 1 {
		t.Errorf("cas_blobs_healed_total = %d in the runner's registry, want 1", got)
	}
	if _, err := store.Get(binDigest); err != nil {
		t.Errorf("healed boot binary unreadable: %v", err)
	}
}
