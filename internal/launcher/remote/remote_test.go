package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
	c := NewWorkerClient(srv.Listener.Addr().String(), 0)
	ctx := context.Background()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Slots != 2 || st.Seq != 0 || st.Outstanding() != 0 {
		t.Fatalf("fresh worker status = %+v", st)
	}
	if err := c.Submit(ctx, JobSpec{Name: "job-a", Sim: "qemu", Bin: "sha256:aa"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Double-lease of a live job must be refused, with the sentinel the
	// coordinator uses to recognize its own retransmits.
	if err := c.Submit(ctx, JobSpec{Name: "job-a", Sim: "qemu", Bin: "sha256:aa"}); !errors.Is(err, ErrAlreadyLeased) {
		t.Fatalf("duplicate lease err = %v, want ErrAlreadyLeased", err)
	}
	close(release)

	deadline := time.After(5 * time.Second)
	var evs []Event
	for {
		if evs, err = c.Events(ctx, 0, 0); err != nil {
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
	if evs[0].Type != EventStart || evs[0].Job != "job-a" || evs[0].Attempt != 1 {
		t.Fatalf("first event = %+v, want start attempt 1", evs[0])
	}
	done := evs[len(evs)-1]
	if done.Type != EventDone || done.Record == nil {
		t.Fatalf("last event = %+v, want done with record", done)
	}
	if done.Record.Status != launcher.StatusOK || done.Record.Cycles != 4242 {
		t.Fatalf("done record = %+v", done.Record)
	}
	// The cursor protocol: asking from the end returns nothing.
	if evs, err = c.Events(ctx, done.Seq+1, 0); err != nil || len(evs) != 0 {
		t.Fatalf("events past end = %v, %v", evs, err)
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
	c := NewWorkerClient(srv.Listener.Addr().String(), 0)
	ctx := context.Background()

	if err := c.Submit(ctx, JobSpec{Name: "running", Sim: "qemu", Bin: "sha256:aa"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started // "running" holds the only slot
	if err := c.Submit(ctx, JobSpec{Name: "queued", Sim: "qemu", Bin: "sha256:bb"}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	if ok, err := c.Steal(ctx, "running"); err != nil || ok {
		t.Fatalf("steal of running job = %v, %v; want refused", ok, err)
	}
	if ok, err := c.Steal(ctx, "queued"); err != nil || !ok {
		t.Fatalf("steal of queued job = %v, %v; want granted", ok, err)
	}
	if ok, err := c.Steal(ctx, "queued"); err != nil || ok {
		t.Fatalf("second steal = %v, %v; want unknown-job refusal", ok, err)
	}
	// The stolen job must never start even once the slot frees.
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if _, ok := st.Jobs["queued"]; ok {
		t.Fatalf("stolen job still tracked: %+v", st.Jobs)
	}
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

func TestCoordinatorReleasesOnWorkerDeath(t *testing.T) {
	reg := obs.NewRegistry()
	ptr := checkpoint.Pointer{Job: "victim", Digest: "sha256:cc", Exec: 1, Instret: 9000}
	hung := make(chan struct{})

	// Worker 0 announces a checkpoint then hangs; worker 1 finishes
	// anything, proving the re-leased spec carried Prior and Ckpt.
	var release atomic.Pointer[JobSpec]
	addrs, workers, servers := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 {
					emit(Event{Type: EventCheckpoint, Job: spec.Name, Ckpt: &ptr})
					close(hung)
					<-ctx.Done()
					return nil, ctx.Err()
				}
				s := spec
				release.Store(&s)
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 777}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	var persisted atomic.Pointer[checkpoint.Pointer]
	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), []JobSpec{{Name: "victim", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{
				Workers: addrs, Poll: 5 * time.Millisecond, LeaseTTL: 50 * time.Millisecond,
				Obs:          reg,
				OnCheckpoint: func(p *checkpoint.Pointer) { persisted.Store(p) },
			})
	}()

	<-hung // job is on worker 0 and checkpointed
	// Give the poll loop a beat to observe the checkpoint event, then
	// kill worker 0 hard: server down, simulation reaped.
	for i := 0; i < 400 && persisted.Load() == nil; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	servers[0].Close()
	workers[0].Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never recovered from worker death")
	}
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
		CoordOptions{Workers: []string{"127.0.0.1:1"}, RequestTimeout: 200 * time.Millisecond}); err == nil {
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
