package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/verify"
)

// okRunner returns a fake runner whose jobs finish instantly with the
// given cycle count.
func okRunner(cycles uint64) RunnerFunc {
	return func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
		return &RunOutput{Metrics: launcher.Metrics{ExitCode: 0, Cycles: cycles}}, nil
	}
}

// fleet spins up n in-process workers and returns their addresses plus a
// cleanup-ordered list of servers and workers.
func fleet(t *testing.T, n int, mk func(i int) WorkerConfig) (addrs []string, workers []*Worker, servers []*httptest.Server) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := NewWorker(mk(i))
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		workers = append(workers, w)
		servers = append(servers, srv)
		addrs = append(addrs, srv.Listener.Addr().String())
	}
	return addrs, workers, servers
}

// leaseOne offers a worker one spec and returns its answer for it.
func leaseOne(ctx context.Context, c *WorkerClient, spec JobSpec) (int, error) {
	codes, err := c.Lease(ctx, []JobSpec{spec})
	if err != nil {
		return 0, err
	}
	return codes[0], nil
}

func TestJobSpecRoundTrip(t *testing.T) {
	spec := JobSpec{
		Name: "br-sweep-0", Sim: "rtl", Bin: "sha256:ab", Img: "sha256:cd",
		Outputs: []string{"/output/out.txt"}, Timeout: 3 * time.Second, Retries: 2,
		Prior: 1, Resumed: true,
		Ckpt:      &checkpoint.Pointer{Job: "br-sweep-0", Digest: "sha256:ee", Exec: 2, Instret: 5000},
		CkptEvery: 1000,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got JobSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("round trip mismatch:\n  sent %+v\n  got  %+v", spec, got)
	}
}

// TestJobSpecCarriesConfigsWhole: a job spec carries the hardware
// configuration and the farm parameters as the types that declare them, so
// every field of each survives the wire — one added to rtlsim.Config or
// verify.Params travels without anyone copying it. Only the runtime handles
// stay behind.
func TestJobSpecCarriesConfigsWhole(t *testing.T) {
	var rtl rtlsim.Config
	var params verify.Params
	n := 0
	if skipped := fillNonZero(t, reflect.ValueOf(&rtl).Elem(), "rtl", &n); !reflect.DeepEqual(skipped, []string{"rtl.Stop", "rtl.Ckpt", "rtl.Obs"}) {
		t.Errorf("rtlsim.Config fields kept off the wire: %v, want only the runtime handles Stop, Ckpt, Obs", skipped)
	}
	if skipped := fillNonZero(t, reflect.ValueOf(&params).Elem(), "verify", &n); len(skipped) != 0 {
		t.Errorf("verify.Params fields kept off the wire: %v", skipped)
	}
	// A fault must be one a worker can inject, or it does not decode.
	params.Fault.Tier, params.Fault.Reg = verify.TierTraced, 5
	data, err := json.Marshal(JobSpec{Name: "j", RTL: &rtl, Verify: &params})
	if err != nil {
		t.Fatal(err)
	}
	var got JobSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	rtl.Stop, rtl.Ckpt, rtl.Obs = nil, nil, nil
	diffFields(t, reflect.ValueOf(rtl), reflect.ValueOf(*got.RTL), "rtl")
	diffFields(t, reflect.ValueOf(params), reflect.ValueOf(*got.Verify), "verify")
}

// fillNonZero sets every exported field under v to a distinct nonzero
// value (*n counts them) and returns the paths of the fields tagged
// json:"-", which it leaves alone.
func fillNonZero(t *testing.T, v reflect.Value, path string, n *int) (skipped []string) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Tag.Get("json") == "-" {
				skipped = append(skipped, path+"."+f.Name)
				continue
			}
			skipped = append(skipped, fillNonZero(t, v.Field(i), path+"."+f.Name, n)...)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fillNonZero(t, v.Elem(), path, n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fillNonZero(t, v.Index(0), path+"[0]", n)
	case reflect.String:
		v.SetString(fmt.Sprintf("%s-%d", path, *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	default:
		t.Fatalf("%s: cannot fill a %s", path, v.Type())
	}
	return skipped
}

// diffFields reports every leaf field under path whose value the wire
// changed.
func diffFields(t *testing.T, sent, got reflect.Value, path string) {
	t.Helper()
	switch sent.Kind() {
	case reflect.Struct:
		for i := 0; i < sent.NumField(); i++ {
			if sent.Type().Field(i).IsExported() {
				diffFields(t, sent.Field(i), got.Field(i), path+"."+sent.Type().Field(i).Name)
			}
		}
	case reflect.Pointer:
		if sent.IsNil() || got.IsNil() {
			if sent.IsNil() != got.IsNil() {
				t.Errorf("%s did not survive the wire", path)
			}
			return
		}
		diffFields(t, sent.Elem(), got.Elem(), path)
	default:
		if !reflect.DeepEqual(sent.Interface(), got.Interface()) {
			t.Errorf("%s did not survive the wire: sent %v, got %v", path, sent.Interface(), got.Interface())
		}
	}
}

func TestWorkerLeaseToDone(t *testing.T) {
	// The runner blocks until released so the duplicate-lease probe below
	// is guaranteed to arrive while the first lease is still live (a
	// *terminal* entry is deliberately re-leasable).
	release := make(chan struct{})
	gated := RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
		<-release
		return &RunOutput{Metrics: launcher.Metrics{ExitCode: 0, Cycles: 4242}}, nil
	})
	w := NewWorker(WorkerConfig{Runner: gated, Slots: 2, Obs: obs.NewRegistry()})
	defer w.Close()
	srv := httptest.NewServer(w)
	defer srv.Close()
	c := NewWorkerClient(srv.Listener.Addr().String())
	ctx := context.Background()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Slots != 2 || st.Protocol != protocolVersion {
		t.Fatalf("fresh worker status = %+v", st)
	}
	if code, err := leaseOne(ctx, c, JobSpec{Name: "job-a", Sim: "qemu", Bin: "sha256:aa"}); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", code, err)
	}
	// Double-lease of a live job must be refused, with the answer the
	// coordinator uses to recognize its own retransmits.
	if code, err := leaseOne(ctx, c, JobSpec{Name: "job-a", Sim: "qemu", Bin: "sha256:aa"}); err != nil || code != http.StatusConflict {
		t.Fatalf("duplicate lease = %d, %v; want 409", code, err)
	}
	close(release)

	deadline := time.After(5 * time.Second)
	var evs []Event
	for {
		if evs, err = c.Events(ctx, st.Seq, 0); err != nil {
			t.Fatalf("events: %v", err)
		}
		if len(evs) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job never finished; events: %+v", evs)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if evs[0].Seq != st.Seq || evs[0].Type != EventStart || evs[0].Job != "job-a" || evs[0].Attempt != 1 {
		t.Fatalf("first event = %+v, want start attempt 1", evs[0])
	}
	done := evs[len(evs)-1]
	if done.Type != EventDone || done.Record == nil {
		t.Fatalf("last event = %+v, want done with record", done)
	}
	if done.Record.Status != launcher.StatusOK || done.Record.Cycles != 4242 {
		t.Fatalf("done record = %+v", done.Record)
	}
	// The cursor protocol: asking from the end returns nothing, and a cursor
	// outside [base, end] is one this process never handed out.
	if evs, err = c.Events(ctx, done.Seq+1, 0); err != nil || len(evs) != 0 {
		t.Fatalf("events past end = %v, %v", evs, err)
	}
	for _, since := range []int{st.Seq - 1, done.Seq + 2} {
		if _, err = c.Events(ctx, since, 0); !errors.Is(err, ErrWorkerRestarted) {
			t.Fatalf("events since %d (log %d..%d) = %v, want ErrWorkerRestarted", since, st.Seq, done.Seq+1, err)
		}
	}
}

// TestWorkerRunsLeaseRetriesExactly: the lease is the policy. A failing job
// is attempted exactly Retries+1 times — once under Retries 0 — since a
// worker has no timeout or retry default of its own to put in its place.
func TestWorkerRunsLeaseRetriesExactly(t *testing.T) {
	var calls sync.Map // job -> *atomic.Int32
	failing := RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
		n, _ := calls.LoadOrStore(spec.Name, new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		return nil, errors.New("transient fault")
	})
	addrs, _, _ := fleet(t, 1, func(int) WorkerConfig {
		return WorkerConfig{Runner: failing, Slots: 2, Obs: obs.NewRegistry()}
	})
	c := NewWorkerClient(addrs[0])
	ctx := context.Background()
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{{Name: "once", Sim: "qemu", Bin: "sha256:aa"}, {Name: "twice", Sim: "qemu", Bin: "sha256:aa", Retries: 1}}
	if codes, err := c.Lease(ctx, specs); err != nil || codes[0] != http.StatusAccepted || codes[1] != http.StatusAccepted {
		t.Fatalf("lease = %v, %v", codes, err)
	}

	done := map[string]*launcher.Record{}
	deadline := time.After(10 * time.Second)
	for cursor := st.Seq; len(done) < len(specs); {
		evs, err := c.Events(ctx, cursor, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		for _, ev := range evs {
			cursor = ev.Seq + 1
			if ev.Type == EventDone {
				done[ev.Job] = ev.Record
			}
		}
		select {
		case <-deadline:
			t.Fatalf("jobs never finished; done: %v", done)
		default:
		}
	}
	for _, spec := range specs {
		want := spec.Retries + 1
		got := 0
		if n, ok := calls.Load(spec.Name); ok {
			got = int(n.(*atomic.Int32).Load())
		}
		if got != want {
			t.Errorf("%s (retries %d) ran %d time(s), want %d", spec.Name, spec.Retries, got, want)
		}
		if rec := done[spec.Name]; rec.Status != launcher.StatusFailed || rec.Attempts != want || rec.Error != "transient fault" {
			t.Errorf("%s record = %+v, want failed after %d attempt(s)", spec.Name, rec, want)
		}
	}
}

func TestWorkerStealOnlyWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &RunOutput{}, nil
	})
	w := NewWorker(WorkerConfig{Runner: runner, Slots: 1, Obs: obs.NewRegistry()})
	defer w.Close()
	defer close(release)
	srv := httptest.NewServer(w)
	defer srv.Close()
	c := NewWorkerClient(srv.Listener.Addr().String())
	ctx := context.Background()

	if code, err := leaseOne(ctx, c, JobSpec{Name: "running", Sim: "qemu", Bin: "sha256:aa"}); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", code, err)
	}
	<-started // "running" holds the only slot
	if code, err := leaseOne(ctx, c, JobSpec{Name: "queued", Sim: "qemu", Bin: "sha256:bb"}); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", code, err)
	}

	tracked := func(name string) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		_, ok := w.jobs[name]
		return ok
	}

	if ok, err := c.Steal(ctx, "running", 0); err != nil || ok {
		t.Fatalf("steal of running job = %v, %v; want refused", ok, err)
	}
	// A steal names its lease: one the worker does not hold, as a late
	// duplicate of a steal of an earlier lease, leaves the job where it is.
	if ok, err := c.Steal(ctx, "queued", 1); err != nil || !ok || !tracked("queued") {
		t.Fatalf("steal of another lease = %v, %v, tracked %v; want not held, job kept", ok, err, tracked("queued"))
	}
	if ok, err := c.Steal(ctx, "queued", 0); err != nil || !ok {
		t.Fatalf("steal of queued job = %v, %v; want granted", ok, err)
	}
	// A steal is idempotent: a second DELETE, a retried one whose first
	// answer was lost, finds the lease not held here (404), which is given back.
	if ok, err := c.Steal(ctx, "queued", 0); err != nil || !ok {
		t.Fatalf("second steal = %v, %v; want not held (given back)", ok, err)
	}
	// The stolen job must never start even once the slot frees.
	if tracked("queued") {
		t.Fatal("stolen job still tracked")
	}
}

// TestWorkerAdoptsOnlyTheSameWork: a lease a killed coordinator left
// running on a worker is a later run's lease of that name only if it does
// the same work. A re-lease that differs in attempt bookkeeping (a -resume)
// adopts it; one of other work is answered "held for other work", charged
// no fault, and goes to another worker or waits for the name — and records
// its own result, never the earlier run's.
func TestWorkerAdoptsOnlyTheSameWork(t *testing.T) {
	ctx := context.Background()
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var oldRuns atomic.Int64
	addrs, _, _ := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if spec.Bin != "sha256:old" {
					return &RunOutput{Metrics: launcher.Metrics{Cycles: 222}}, nil
				}
				oldRuns.Add(1)
				select {
				case <-release[i]:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 111}}, nil
			})}
	})
	released := []bool{false, false}
	free := func(i int) {
		if !released[i] {
			released[i] = true
			close(release[i])
		}
	}
	defer free(0)
	defer free(1)

	old := JobSpec{Name: "x", Sim: "qemu", Bin: "sha256:old"}
	resumed := old
	resumed.Prior, resumed.Resumed, resumed.Retries, resumed.Timeout = 1, true, 2, time.Minute
	resumed.Ckpt = &checkpoint.Pointer{Job: "x", Digest: "sha256:cc", Instret: 9}
	newer := old
	newer.Bin = "sha256:new"
	w0 := NewWorkerClient(addrs[0])
	if code, err := leaseOne(ctx, w0, old); err != nil || code != http.StatusAccepted { // the killed coordinator's lease
		t.Fatalf("submit: %d, %v", code, err)
	}
	if code, err := leaseOne(ctx, w0, resumed); err != nil || code != http.StatusConflict {
		t.Errorf("re-lease of the same work answered %d, %v, want 409", code, err)
	}
	rtl, params := rtlsim.DefaultConfig(), verify.Params{Seeds: []int64{1}}
	for what, mod := range map[string]func(*JobSpec){
		"sim":     func(s *JobSpec) { s.Sim = "spike" },
		"bin":     func(s *JobSpec) { s.Bin = "sha256:new" },
		"img":     func(s *JobSpec) { s.Img = "sha256:dd" },
		"outputs": func(s *JobSpec) { s.Outputs = []string{"/out"} },
		"rtl":     func(s *JobSpec) { s.RTL = &rtl },
		"verify":  func(s *JobSpec) { s.Verify = &params },
	} {
		other := old
		mod(&other)
		if code, err := leaseOne(ctx, w0, other); err != nil || code != http.StatusLocked {
			t.Errorf("lease with other %s answered %d, %v, want 423", what, code, err)
		}
	}

	launch := func(spec JobSpec, workers []string, then func(*logTap)) (launcher.Result, string) {
		t.Helper()
		log := &logTap{leased: make(chan struct{})}
		done := make(chan struct{})
		var sum *launcher.Summary
		var err error
		go func() {
			defer close(done)
			sum, err = Launch(ctx, []JobSpec{spec}, CoordOptions{Workers: workers, Poll: 5 * time.Millisecond, Log: log})
		}()
		then(log)
		select {
		case <-done:
		case <-time.After(prompt): // the earlier run's lease was adopted: let it finish
			free(0)
			free(1)
			<-done
		}
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		return sum.Jobs[0], log.String()
	}
	want := func(r launcher.Result, cycles uint64, log string) {
		t.Helper()
		if r.Status != launcher.StatusOK || r.Metrics.Cycles != cycles {
			t.Errorf("%s: %s with %d cycles, want ok with %d\n%s", r.Name, r.Status, r.Metrics.Cycles, cycles, log)
		}
		if strings.Contains(log, "refused") {
			t.Errorf("a worker holding the name for other work was charged a fault:\n%s", log)
		}
	}

	// Other work goes to the worker that does not hold the name.
	r, log := launch(newer, addrs, func(*logTap) {})
	want(r, 222, log)
	// With only the holder, it waits for the name, then runs. The holder
	// finishes once the coordinator has had time to meet it.
	if code, err := leaseOne(ctx, NewWorkerClient(addrs[1]), old); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", code, err)
	}
	r, log = launch(newer, addrs[1:], func(*logTap) { time.Sleep(50 * time.Millisecond); free(1) })
	want(r, 222, log)
	// The same work adopts the running lease: no second run, its result.
	runs := oldRuns.Load()
	r, log = launch(resumed, addrs[:1], func(l *logTap) {
		select {
		case <-l.leased:
		case <-time.After(prompt):
		}
		free(0)
	})
	want(r, 111, log)
	if n := oldRuns.Load() - runs; n != 0 {
		t.Errorf("the adopted lease ran %d more time(s)", n)
	}
}

// logTap is a coordinator log a test reads while the run goes on; leased
// closes at its first lease.
type logTap struct {
	mu     sync.Mutex
	buf    strings.Builder
	leased chan struct{}
}

func (l *logTap) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if strings.Contains(string(p), "coordinator: leased ") {
		select {
		case <-l.leased:
		default:
			close(l.leased)
		}
	}
	return l.buf.Write(p)
}

func (l *logTap) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func TestCoordinatorSpreadsAndCarriesRecords(t *testing.T) {
	reg := obs.NewRegistry()
	var hits [2]atomic.Int64
	addrs, _, _ := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				hits[i].Add(1)
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 100 * (1 + uint64(i))}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	dir := t.TempDir()
	j, err := launcher.OpenJournal(filepath.Join(dir, "manifest.json.journal"))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	defer j.Close()

	var specs []JobSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{Name: fmt.Sprintf("job-%d", i), Sim: "qemu", Bin: "sha256:aa"})
	}
	sum, err := Launch(context.Background(), specs, CoordOptions{
		Workers: addrs, Journal: j, Poll: 5 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if len(sum.Jobs) != 4 || sum.Err() != nil {
		t.Fatalf("summary = %+v", sum)
	}
	for i, res := range sum.Jobs {
		if res.Name != fmt.Sprintf("job-%d", i) {
			t.Fatalf("summary order broken at %d: %+v", i, res)
		}
		if res.Status != launcher.StatusOK || res.Carried == nil || res.Carried.Cycles != res.Metrics.Cycles {
			t.Fatalf("job %s result = %+v", res.Name, res)
		}
	}
	// Least-loaded spread: both workers executed jobs.
	if hits[0].Load() == 0 || hits[1].Load() == 0 {
		t.Fatalf("scheduler did not spread: worker hits = %d, %d", hits[0].Load(), hits[1].Load())
	}
	if got := reg.Counter("remote_leases_total").Value(); got != 4 {
		t.Fatalf("remote_leases_total = %d, want 4", got)
	}
	if reg.Gauge("remote_workers_up").Value() != 2 {
		t.Fatalf("remote_workers_up = %v", reg.Gauge("remote_workers_up").Value())
	}

	// The journal the coordinator wrote replays like a local run's.
	j.Close()
	recs, _, err := launcher.ReadJournal(filepath.Join(dir, "manifest.json.journal"))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	starts, dones := 0, 0
	for _, r := range recs {
		switch r.Event {
		case launcher.EventStart:
			starts++
		case launcher.EventDone:
			dones++
		}
	}
	if starts != 4 || dones != 4 {
		t.Fatalf("journal has %d starts, %d dones; want 4, 4", starts, dones)
	}
}

// TestCoordinatorReleasesOnWorkerDeath: worker 0 announces a checkpoint and
// then hangs; once the pointer reached the coordinator the worker dies hard.
// After the lease TTL, on virtual time, the job re-leases onto worker 1
// carrying its attempt history and the checkpoint.
func TestCoordinatorReleasesOnWorkerDeath(t *testing.T) {
	reg := obs.NewRegistry()
	ptr := checkpoint.Pointer{Job: "victim", Digest: "sha256:cc", Exec: 1, Instret: 9000}

	// Worker 0 announces a checkpoint then hangs; worker 1 finishes
	// anything, proving the re-leased spec carried Prior and Ckpt.
	var release atomic.Pointer[JobSpec]
	h := newSimFleet(t, 1, 2, func(h *simFleet, i int) RunnerFunc {
		return func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
			if i == 0 {
				emit(Event{Type: EventCheckpoint, Job: spec.Name, Ckpt: &ptr})
				return nil, h.hold(ctx, 0, spec.Name, -1)
			}
			s := spec
			release.Store(&s)
			return &RunOutput{Metrics: launcher.Metrics{Cycles: 777}}, nil
		}
	})
	var persisted atomic.Pointer[checkpoint.Pointer]
	// Once the coordinator has the checkpoint, kill worker 0 hard: off the
	// network, simulation reaped.
	h.when(func() bool { return persisted.Load() != nil }, func() { h.kill(0) })
	sum, lerr := h.launch([]JobSpec{{Name: "victim", Sim: "qemu", Bin: "sha256:aa"}}, CoordOptions{
		Obs:          reg,
		OnCheckpoint: func(p *checkpoint.Pointer) { persisted.Store(p) },
	})
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Jobs[0].Status != launcher.StatusOK || sum.Jobs[0].Metrics.Cycles != 777 {
		t.Fatalf("re-leased job result = %+v", sum.Jobs[0])
	}
	got := release.Load()
	if got == nil {
		t.Fatal("job never reached worker 1")
	}
	if got.Prior < 1 || !got.Resumed {
		t.Fatalf("re-leased spec lost attempt history: %+v", got)
	}
	if got.Ckpt == nil || got.Ckpt.Digest != ptr.Digest || got.Ckpt.Instret != 9000 {
		t.Fatalf("re-leased spec lost the checkpoint: %+v", got.Ckpt)
	}
	if p := persisted.Load(); p == nil || p.Digest != ptr.Digest {
		t.Fatalf("OnCheckpoint never saw the pointer: %+v", p)
	}
	if reg.Counter("remote_lease_expiries_total").Value() != 1 {
		t.Fatalf("remote_lease_expiries_total = %d", reg.Counter("remote_lease_expiries_total").Value())
	}
	if reg.Gauge("remote_workers_up").Value() != 1 {
		t.Fatalf("remote_workers_up = %v after death", reg.Gauge("remote_workers_up").Value())
	}
	if ttl := leaseHeartbeats * h.poll; sum.Wall < ttl {
		t.Errorf("the job re-leased %s into the run, inside the %s lease TTL", sum.Wall, ttl)
	}
}

func TestCoordinatorStealsFromStraggler(t *testing.T) {
	reg := obs.NewRegistry()
	slow := make(chan struct{})
	var w1Jobs atomic.Int64
	addrs, _, _ := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 && spec.Name == "job-0" {
					select {
					case <-slow:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				if i == 1 {
					w1Jobs.Add(1)
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 1}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	// job-0 (slow) and job-2 land on worker 0; job-1 on worker 1. Once
	// worker 1 drains, it must steal job-2 from behind the straggler.
	specs := []JobSpec{
		{Name: "job-0", Sim: "qemu", Bin: "sha256:aa"},
		{Name: "job-1", Sim: "qemu", Bin: "sha256:aa"},
		{Name: "job-2", Sim: "qemu", Bin: "sha256:aa"},
	}
	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), specs, CoordOptions{
			Workers: addrs, Poll: 5 * time.Millisecond, Obs: reg,
		})
	}()

	deadline := time.After(10 * time.Second)
	for reg.Counter("remote_steals_total").Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("no steal happened")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(slow)
	<-done
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Err() != nil {
		t.Fatalf("summary err: %v", sum.Err())
	}
	// Worker 1 ran its own job plus the stolen one.
	if w1Jobs.Load() < 2 {
		t.Fatalf("worker 1 ran %d jobs, want >= 2 (steal)", w1Jobs.Load())
	}
}

func TestCoordinatorRelaysGracefulForfeit(t *testing.T) {
	// Worker 0 shuts down cleanly mid-job (Close, server still up): the
	// cancelled record must read as a forfeited lease, not a dead job.
	running := make(chan struct{})
	var ran1 atomic.Bool
	addrs, workers, _ := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 {
					close(running)
					<-ctx.Done()
					return nil, ctx.Err()
				}
				ran1.Store(true)
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 55}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), []JobSpec{{Name: "mover", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond, Obs: obs.NewRegistry()})
	}()
	<-running
	workers[0].Close() // graceful: HTTP still answers, jobs report cancelled

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never re-leased the forfeited job")
	}
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Jobs[0].Status != launcher.StatusOK || sum.Jobs[0].Metrics.Cycles != 55 || !ran1.Load() {
		t.Fatalf("forfeited job result = %+v (ran on worker 1: %v)", sum.Jobs[0], ran1.Load())
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	if _, err := Launch(context.Background(), []JobSpec{{Name: "x"}}, CoordOptions{}); err == nil {
		t.Fatal("launch with no workers succeeded")
	}
	// A configured-but-dead fleet is also a hard error.
	if _, err := Launch(context.Background(), []JobSpec{{Name: "x"}},
		CoordOptions{Workers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("launch with all-dead fleet succeeded")
	}
}

func TestCoordinatorCancelLeavesJobsResumable(t *testing.T) {
	started := make(chan struct{})
	addrs, _, _ := fleet(t, 1, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				close(started)
				<-ctx.Done()
				return nil, ctx.Err()
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var sum *launcher.Summary
	go func() {
		defer close(done)
		sum, _ = Launch(ctx, []JobSpec{{Name: "interrupted", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{Workers: addrs, Poll: 5 * time.Millisecond, Obs: obs.NewRegistry()})
	}()
	<-started
	cancel()
	<-done
	if sum == nil || len(sum.Jobs) != 1 || sum.Jobs[0].Status != launcher.StatusCancelled {
		t.Fatalf("cancelled summary = %+v", sum)
	}
}

// TestCoordinatorCancelBeforeStartKeepsPriorAttempts: a resumed job (two
// attempts already used) that a cancelled fleet run never started is
// recorded as the local pool records it: cancelled, with its prior attempts,
// so a later -resume reads the same count either way.
func TestCoordinatorCancelBeforeStartKeepsPriorAttempts(t *testing.T) {
	c, err := newCoordinator([]JobSpec{{Name: "resumed", Prior: 2, Resumed: true}}, CoordOptions{Workers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	fleetRec := c.summary(0).Records()[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	local := launcher.New(launcher.Options{Workers: 1}).Run(ctx, []launcher.Job{{Name: "resumed", Prior: 2, Resumed: true,
		Run: func(context.Context, int) (launcher.Metrics, error) { return launcher.Metrics{}, nil }}})
	localRec := local.Records()[0]

	if fleetRec.Status != localRec.Status || fleetRec.Attempts != localRec.Attempts || fleetRec.Resumed != localRec.Resumed || localRec.Attempts != 2 {
		t.Fatalf("fleet record %+v, local pool record %+v: want both cancelled with 2 attempts, resumed", fleetRec, localRec)
	}
}

func TestTransferPushFetchRoundTrip(t *testing.T) {
	// Exercised end to end by the e2e crash/resume tests; here just the
	// pointer-file plumbing.
	dir := t.TempDir()
	ptr := &checkpoint.Pointer{Job: "j", Digest: "sha256:dd", Exec: 3, Instret: 123}
	if err := checkpoint.WritePointer(dir, ptr); err != nil {
		t.Fatalf("write pointer: %v", err)
	}
	got, err := checkpoint.LoadPointer(checkpoint.PointerPath(dir, "j"))
	if err != nil {
		t.Fatalf("load pointer: %v", err)
	}
	if !reflect.DeepEqual(ptr, got) {
		t.Fatalf("pointer round trip: sent %+v got %+v", ptr, got)
	}
	_ = os.RemoveAll(dir)
}
