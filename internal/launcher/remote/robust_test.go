package remote

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
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

// TestCoordinatorHedgesStraggler: a started-but-silent job is duplicated
// onto the idle healthy worker after HedgeAfter; the hedge's terminal
// event wins and the job completes while the straggler is still stuck.
func TestCoordinatorHedgesStraggler(t *testing.T) {
	reg := obs.NewRegistry()
	addrs, _, _ := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 {
					<-ctx.Done() // the straggler never finishes on its own
					return nil, ctx.Err()
				}
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 123}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), []JobSpec{{Name: "stuck", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{
				Workers: addrs, Poll: 5 * time.Millisecond,
				HedgeAfter: 30 * time.Millisecond, Obs: reg,
			})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hedge never rescued the straggler")
	}
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Jobs[0].Status != launcher.StatusOK || sum.Jobs[0].Metrics.Cycles != 123 {
		t.Fatalf("hedged job result = %+v", sum.Jobs[0])
	}
	if got := reg.Counter("remote_hedges_total").Value(); got == 0 {
		t.Error("remote_hedges_total = 0; the job finished without a hedge")
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
// events continuously while the test kills it hard, so the lease expiry
// races the checkpoint-publish handling in the poll loop. The job must
// re-lease onto worker 1 carrying some replicated checkpoint, complete
// exactly once, and the whole dance must be race-clean (the chaos gate
// runs this under -race).
func TestLeaseExpiryRacesCheckpointPublish(t *testing.T) {
	reg := obs.NewRegistry()
	var relayed atomic.Pointer[JobSpec]
	var persisted atomic.Int64
	streaming := make(chan struct{}, 1)
	addrs, workers, servers := fleet(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{
			Runner: RunnerFunc(func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
				if i == 0 {
					for n := uint64(1); ; n++ {
						select {
						case <-ctx.Done():
							return nil, ctx.Err()
						case <-time.After(time.Millisecond):
							emit(Event{Type: EventCheckpoint, Job: spec.Name,
								Ckpt: &checkpoint.Pointer{Job: spec.Name, Digest: "sha256:ff", Exec: 1, Instret: 1000 * n}})
							select {
							case streaming <- struct{}{}:
							default:
							}
						}
					}
				}
				s := spec
				relayed.Store(&s)
				return &RunOutput{Metrics: launcher.Metrics{Cycles: 31337}}, nil
			}),
			Slots: 1, Obs: obs.NewRegistry(),
		}
	})

	done := make(chan struct{})
	var sum *launcher.Summary
	var lerr error
	go func() {
		defer close(done)
		sum, lerr = Launch(context.Background(), []JobSpec{{Name: "racer", Sim: "qemu", Bin: "sha256:aa"}},
			CoordOptions{
				Workers: addrs, Poll: 3 * time.Millisecond, LeaseTTL: 40 * time.Millisecond,
				Obs:          reg,
				OnCheckpoint: func(p *checkpoint.Pointer) { persisted.Add(1) },
			})
	}()

	<-streaming // the job is on worker 0 and checkpoints are flowing
	// Let a few checkpoint polls land, then kill the worker mid-stream.
	deadline := time.After(5 * time.Second)
	for persisted.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no checkpoint ever reached the coordinator")
		case <-time.After(2 * time.Millisecond):
		}
	}
	servers[0].Close()
	workers[0].Close()

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator never recovered the job")
	}
	if lerr != nil {
		t.Fatalf("launch: %v", lerr)
	}
	if sum.Jobs[0].Status != launcher.StatusOK || sum.Jobs[0].Metrics.Cycles != 31337 {
		t.Fatalf("recovered job result = %+v", sum.Jobs[0])
	}
	got := relayed.Load()
	if got == nil {
		t.Fatal("job never reached worker 1")
	}
	if got.Ckpt == nil || got.Ckpt.Instret == 0 {
		t.Fatalf("re-leased spec lost the checkpoint stream: %+v", got.Ckpt)
	}
	if !got.Resumed {
		t.Error("re-leased spec not marked resumed despite a checkpoint")
	}
	if reg.Counter("remote_lease_expiries_total").Value() == 0 {
		t.Error("remote_lease_expiries_total = 0; the recovery path was not lease expiry")
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

	c := NewWorkerClient(srv.Listener.Addr().String(), 0)
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
