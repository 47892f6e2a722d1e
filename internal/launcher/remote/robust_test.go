package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// TestCoordinatorQuarantinesErrorProneWorker: a worker that answers the
// registration probe but fails every subsequent request accrues submit
// faults past the threshold and is quarantined — all jobs land on the
// healthy worker and the run still succeeds.
func TestCoordinatorQuarantinesErrorProneWorker(t *testing.T) {
	reg := obs.NewRegistry()
	var healthyJobs atomic.Int64
	mkWorker := func(count bool) *Worker {
		return NewWorker(WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if count {
					healthyJobs.Add(1)
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 9}}, nil
			}),
			Slots: 4, Obs: obs.NewRegistry(),
		})
	}

	flaky := mkWorker(false)
	defer flaky.Close()
	// Registration succeeds; every lease and poll gets a 500.
	flakySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/status" {
			flaky.ServeHTTP(w, r)
			return
		}
		http.Error(w, "injected fault", http.StatusInternalServerError)
	}))
	defer flakySrv.Close()

	healthy := mkWorker(true)
	defer healthy.Close()
	healthySrv := httptest.NewServer(healthy)
	defer healthySrv.Close()

	// Three jobs: the least-loaded scheduler offers each to the flaky
	// worker first, each refusal charges faultSubmit, and the third
	// crosses the quarantine threshold during initial assignment —
	// no timing dependence at all.
	specs := []JobSpec{
		{Name: "q-0", Sim: "qemu", Bin: "sha256:aa"},
		{Name: "q-1", Sim: "qemu", Bin: "sha256:aa"},
		{Name: "q-2", Sim: "qemu", Bin: "sha256:aa"},
	}
	sum, err := Launch(context.Background(), specs, CoordOptions{
		Workers: []string{flakySrv.Listener.Addr().String(), healthySrv.Listener.Addr().String()},
		Poll:    5 * time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if serr := sum.Err(); serr != nil {
		t.Fatalf("summary err: %v", serr)
	}
	if got := healthyJobs.Load(); got != 3 {
		t.Errorf("healthy worker ran %d jobs, want all 3", got)
	}
	if got := reg.Counter("remote_worker_quarantines_total").Value(); got != 1 {
		t.Errorf("remote_worker_quarantines_total = %d, want 1", got)
	}
	if got := reg.Gauge("remote_workers_quarantined").Value(); got != 1 {
		t.Errorf("remote_workers_quarantined = %g, want 1", got)
	}
}

// TestCoordinatorFailsAJobEveryWorkerRefuses: a live worker that answers
// every lease with 503 is offered the job once a sweep, a tick apart. After
// maxRefusals sweeps the job fails, and its error says that every live
// worker refused it, in how many sweeps and with what code: a worker was
// alive all along.
func TestCoordinatorFailsAJobEveryWorkerRefuses(t *testing.T) {
	w := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 1, Obs: obs.NewRegistry()})
	defer w.Close()
	var leases atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" {
			w.ServeHTTP(rw, r)
			return
		}
		leases.Add(1)
		var specs []JobSpec
		if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		codes := make([]int, len(specs))
		for i := range codes {
			codes[i] = http.StatusServiceUnavailable
		}
		json.NewEncoder(rw).Encode(codes)
	}))
	defer srv.Close()

	sum, err := Launch(context.Background(), []JobSpec{{Name: "r-0", Sim: "qemu", Bin: "sha256:aa"}}, CoordOptions{
		Workers: []string{srv.Listener.Addr().String()}, Poll: time.Millisecond, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	r := sum.Jobs[0]
	want := fmt.Sprintf("every live worker refused the job, %d sweeps over", maxRefusals+1)
	if r.Status != launcher.StatusFailed || !strings.Contains(r.Err, want) || !strings.Contains(r.Err, "0:503") {
		t.Errorf("job ended %s (%q), want failed: %q, naming the last refusal (0:503)", r.Status, r.Err, want)
	}
	if n := leases.Load(); n != maxRefusals+1 {
		t.Errorf("%d lease requests, want %d: one a sweep", n, maxRefusals+1)
	}
}

// TestCoordinatorRevivesLateWorker: a worker that misses the registration
// probe joins the fleet mid-run the moment it starts answering — the
// revive pass re-probes dead workers every tick.
func TestCoordinatorRevivesLateWorker(t *testing.T) {
	// Reserve an address, then give it up so registration fails there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := l.Addr().String()
	l.Close()

	reg := obs.NewRegistry()
	release := make(chan struct{})
	addrs, _, _ := fleet(t, 1, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 77}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), []JobSpec{{Name: "held", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{
				Workers: []string{lateAddr, addrs[0]},
				Poll:    5 * time.Millisecond, Obs: reg,
			})
	}()

	// Bring the late worker up on the reserved address mid-run.
	late := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 1, Obs: obs.NewRegistry()})
	defer late.Close()
	var lateL net.Listener
	for i := 0; i < 50; i++ {
		if lateL, err = net.Listen("tcp", lateAddr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", lateAddr, err)
	}
	lateSrv := &httptest.Server{Listener: lateL, Config: &http.Server{Handler: late}}
	lateSrv.Start()
	defer lateSrv.Close()

	deadline := time.After(10 * time.Second)
	for reg.Gauge("remote_workers_up").Value() < 2 {
		select {
		case <-deadline:
			t.Fatal("late worker never rejoined the fleet")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run never finished after revival")
	}
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Jobs[0].Status != launcher.StatusOK {
		t.Fatalf("job result = %+v", sum.Jobs[0])
	}
}

// TestLeaseExpiryRacesCheckpointPublish: worker 0 streams checkpoint
// events while it is killed, so the lease expiry races the checkpoint
// handling in the poll loop — in the orders of 20 seeds, on virtual time.
// The job must re-lease onto worker 1 carrying some replicated checkpoint and
// complete exactly once (the chaos gate runs this under -race).
func TestLeaseExpiryRacesCheckpointPublish(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		reg := obs.NewRegistry()
		var relayed atomic.Pointer[JobSpec]
		var persisted, ran atomic.Int64
		h := newSimFleet(t, seed, 2, func(h *simFleet, i int) RunnerFunc {
			return func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 {
					for n := uint64(1); ; n++ {
						if err := h.hold(ctx, 0, spec.Name, time.Millisecond); err != nil {
							return nil, err
						}
						emit(Event{Type: EventCheckpoint, Job: spec.Name,
							Ckpt: &checkpoint.Pointer{Job: spec.Name, Digest: "sha256:ff", Exec: 1, Instret: 1000 * n}})
					}
				}
				s := spec
				relayed.Store(&s)
				ran.Add(1)
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 31337}}, nil
			}
		})
		// Let a few checkpoints land, then kill the worker mid-stream.
		h.when(func() bool { return persisted.Load() >= 3 }, func() { h.kill(0) })
		sum, lerr := h.launch([]JobSpec{{Name: "racer", Sim: "qemu", Bin: "sha256:aa"}}, CoordOptions{
			Obs:          reg,
			OnCheckpoint: func(p *checkpoint.Pointer) { persisted.Add(1) },
		})
		if lerr != nil {
			t.Fatalf("seed %d: launch: %v", seed, lerr)
		}
		if sum.Jobs[0].Status != launcher.StatusOK || sum.Jobs[0].Metrics.Cycles != 31337 {
			t.Fatalf("seed %d: recovered job result = %+v", seed, sum.Jobs[0])
		}
		got := relayed.Load()
		if got == nil || ran.Load() != 1 {
			t.Fatalf("seed %d: job ran %d times on worker 1, want once", seed, ran.Load())
		}
		if got.Ckpt == nil || got.Ckpt.Instret == 0 {
			t.Fatalf("seed %d: re-leased spec lost the checkpoint stream: %+v", seed, got.Ckpt)
		}
		if !got.Resumed {
			t.Errorf("seed %d: re-leased spec not marked resumed despite a checkpoint", seed)
		}
		if reg.Counter("remote_lease_expiries_total").Value() == 0 {
			t.Errorf("seed %d: remote_lease_expiries_total = 0; the recovery path was not lease expiry", seed)
		}
	}
}

// TestWorkerClient429Backoff: the control client honors a worker's
// Retry-After hint before retrying, instead of hammering a throttled
// worker.
func TestWorkerClient429Backoff(t *testing.T) {
	w := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 1, Obs: obs.NewRegistry()})
	defer w.Close()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "throttled", http.StatusTooManyRequests)
			return
		}
		w.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c := NewWorkerClient(srv.Listener.Addr().String())
	var slept []time.Duration
	c.http.Sleep = func(d time.Duration) { slept = append(slept, d) }
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatalf("status after throttling: %v", err)
	}
	if st.Slots != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2 (once per 429)", len(slept))
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("backoff %d = %v, want >= the 1s Retry-After hint", i, d)
		}
	}
}

// TestWorkerRestartedInsideTheTTL: a worker restarted at the same address
// inside the lease TTL lost the lease it held. Its new log starts at a base
// of its own, so the coordinator's cursor is outside it: the next poll is
// answered 410 and the coordinator
// registers the worker again and re-leases the job, instead of reading an
// empty log, heartbeat after heartbeat, until the run is cancelled. A restart
// is no lease expiry.
func TestWorkerRestartedInsideTheTTL(t *testing.T) {
	first := NewWorker(WorkerConfig{Slots: 4, Obs: obs.NewRegistry(),
		Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
			if spec.Name == "last" { // held until the test ends: the restart takes it
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return &RunOutput{Metrics: launcher.Metrics{Cycles: 7}}, nil
		})})
	defer first.Close()
	restarted := NewWorker(WorkerConfig{Runner: okRunner(8), Slots: 4, Obs: obs.NewRegistry()})
	defer restarted.Close()
	var serving atomic.Pointer[Worker]
	serving.Store(first)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		serving.Load().ServeHTTP(rw, r)
	}))
	defer srv.Close()

	landedFour := make(chan struct{})
	var landed atomic.Int64
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), prompt)
	defer cancel()
	done := make(chan struct{})
	var sum *launcher.Summary
	var err error
	go func() {
		defer close(done)
		sum, err = Launch(ctx, specsNamed("a", "b", "c", "d", "last"), CoordOptions{
			Workers: []string{srv.Listener.Addr().String()}, Poll: 5 * time.Millisecond, Obs: reg,
			OnDone: func(ev Event) error {
				if landed.Add(1) == 4 {
					close(landedFour)
				}
				return nil
			},
		})
	}()
	within(t, landedFour, "a-d landing")
	serving.Store(restarted)
	<-done
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	for _, r := range sum.Jobs {
		if r.Status != launcher.StatusOK {
			t.Errorf("%s: %s (%s), want ok", r.Name, r.Status, r.Err)
		}
	}
	if r := sum.Jobs[4]; r.Metrics.Cycles != 8 {
		t.Errorf("last ran %d cycles, want the restarted worker's 8", r.Metrics.Cycles)
	}
	if n := reg.Counter("remote_lease_expiries_total").Value(); n != 0 {
		t.Errorf("remote_lease_expiries_total = %d, want 0: a restart is no expiry", n)
	}
}

// TestCoordinatorRegistersOnlyItsProtocolVersion: a worker whose status
// names no protocol version, as one from before the version existed, or
// version 1, whose log restarts where a cursor may still fit, is never
// leased to and never probed again. Alone it fails the launch with
// ErrProtocolVersion before any lease; beside a current worker, the run goes
// to that worker alone.
func TestCoordinatorRegistersOnlyItsProtocolVersion(t *testing.T) {
	addrs, _, _ := fleet(t, 1, func(int) WorkerConfig {
		return WorkerConfig{Slots: 1, Obs: obs.NewRegistry(),
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				time.Sleep(25 * time.Millisecond) // a few Poll ticks, each one a chance to revive
				return &RunOutput{}, nil
			})}
	})
	launch := func(workers []string, jobs ...string) (*launcher.Summary, error) {
		ctx, cancel := context.WithTimeout(context.Background(), prompt)
		defer cancel()
		return Launch(ctx, specsNamed(jobs...), CoordOptions{Workers: workers, Poll: 5 * time.Millisecond})
	}
	for _, status := range []string{`{"slots":4,"seq":0}`, `{"protocol":1,"slots":4,"seq":0}`} {
		var probes, leases atomic.Int64
		old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/status":
				probes.Add(1)
				rw.Write([]byte(status))
			case "/v1/jobs":
				leases.Add(1)
				rw.Write([]byte(`[202]`))
			default:
				rw.Write([]byte(`[]`))
			}
		}))
		defer old.Close()
		oldAddr := old.Listener.Addr().String()

		if _, err := launch([]string{oldAddr}, "x"); !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("status %s: launch on an older worker alone = %v, want ErrProtocolVersion", status, err)
		}
		sum, err := launch([]string{oldAddr, addrs[0]}, "a", "b")
		if err != nil || sum.Err() != nil {
			t.Fatalf("status %s: launch beside a current worker: %v, %+v", status, err, sum)
		}
		if n := leases.Load(); n != 0 {
			t.Errorf("status %s: the older worker got %d lease request(s), want none", status, n)
		}
		if n := probes.Load(); n != 2 {
			t.Errorf("status %s: the older worker was probed %d times in two runs, want once per run", status, n)
		}
	}
}
