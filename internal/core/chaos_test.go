package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/chaos"
	"firemarshal/internal/hostutil"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/workgen"
)

// TestChaosRunSurvivesFaultSchedule is the chaos gate: the 6-job parjobs
// workload on a 3-worker loopback fleet, under the default fault
// schedule for seed 1, must lose no job and end each one with the cycles,
// exit code and console bytes of a clean local run. Every HTTP edge — the
// coordinator's cache and worker clients, each worker's cache client —
// draws faults from the plan; every worker store starts with a corrupt
// copy of each artifact blob, so the self-heal path must run; worker 0
// is the flaky host the coordinator must quarantine, and the last worker
// stalls each lease 2 s, so idle workers must steal what queues behind
// it. (Fleet ≡ local with no faults is TestDistributedLaunchMatchesLocal.)
func TestChaosRunSurvivesFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run stands up a fleet and stalls a worker 2 s")
	}
	e := newEnv(t)
	if _, err := workgen.EmitParallelWorkload(e.wlDir, 6, "test"); err != nil {
		t.Fatal(err)
	}
	ref, err := e.m.Launch("parjobs", LaunchOpts{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, wantLogs := readRunArtifacts(t, ref)
	wantExit := map[string]int64{}
	for _, r := range ref {
		wantExit[r.Target] = r.ExitCode
	}

	plan := chaos.DefaultPlan(1)
	reg := obs.NewRegistry()
	m, err := New(t.TempDir(), e.wlDir)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = reg
	m.remoteTransport = plan.Transport("coord-cache", nil, reg)
	hubURL := startSharedCache(t, m).URL
	cache, err := m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	cache.SetBreakerCooldown(300 * time.Millisecond)

	// Build first: the artifact digests must be known before the workers
	// exist, so corrupt copies can be planted in their stores. The launch
	// re-runs the build as a no-op.
	if _, err := m.Build("parjobs", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	var artifacts []string
	for target := range wantCycles {
		for _, path := range []string{m.BinPath(target), m.ImgPath(target)} {
			if data, err := os.ReadFile(path); err == nil {
				artifacts = append(artifacts, hostutil.HashBytes(data))
			}
		}
	}
	if len(artifacts) == 0 {
		t.Fatal("no artifact to plant a corrupt copy of")
	}

	const workers = 3
	var addrs []string
	for i := 0; i < workers; i++ {
		storeDir := t.TempDir()
		store, err := cas.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetTamper(plan.StoreFaults(fmt.Sprintf("worker%d-store", i), reg))
		for _, digest := range artifacts {
			if err := chaos.PlantCorruptBlob(storeDir, digest); err != nil {
				t.Fatal(err)
			}
		}
		client := casremote.NewClient(hubURL, 0)
		client.SetTransport(plan.Transport(fmt.Sprintf("worker%d-cache", i), nil, reg))
		var runner lremote.Runner = &lremote.ArtifactRunner{Store: store, Remote: client, CkptDir: t.TempDir(), Obs: reg}
		if i == workers-1 {
			inner := runner
			runner = lremote.RunnerFunc(func(ctx context.Context, spec lremote.JobSpec, emit func(lremote.Event)) (*lremote.RunOutput, error) {
				if err := hostutil.SleepCtx(ctx, 2*time.Second); err != nil {
					return nil, err
				}
				return inner.Run(ctx, spec, emit)
			})
		}
		w := lremote.NewWorker(lremote.WorkerConfig{Runner: runner, Slots: 1, Obs: reg})
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		addrs = append(addrs, srv.Listener.Addr().String())
	}

	// Worker 0 is the error-prone machine: 95% more of the coordinator's
	// requests to it drop. The flaky host joins the plan after the
	// listeners exist; ports vary run to run, the schedule does not.
	flaky := plan
	flaky.FlakyHosts = map[string]uint32{addrs[0]: 950}
	results, err := m.Launch("parjobs", LaunchOpts{
		Workers:         addrs,
		WorkerPoll:      25 * time.Millisecond,
		Retries:         3,
		workerTransport: flaky.Transport("coord-worker", nil, reg),
	})
	if err != nil {
		t.Fatalf("fleet under fault schedule %s: %v", plan.Fingerprint(), err)
	}
	// Read the metrics from one snapshot, before anything asks the
	// registry for a metric by name (which would create it).
	snap := reg.Snapshot()

	if len(results) != len(wantCycles) {
		t.Errorf("lost jobs: %d results, want %d", len(results), len(wantCycles))
	}
	for _, r := range results {
		console, err := os.ReadFile(r.Uartlog)
		if err != nil {
			t.Errorf("job %s has no console: %v", r.Target, err)
			continue
		}
		if r.Cycles != wantCycles[r.Target] {
			t.Errorf("job %s: cycles %d under faults, %d clean", r.Target, r.Cycles, wantCycles[r.Target])
		}
		if r.ExitCode != wantExit[r.Target] {
			t.Errorf("job %s: exit %d under faults, %d clean", r.Target, r.ExitCode, wantExit[r.Target])
		}
		if got, want := hostutil.HashBytes(console), hostutil.HashBytes(wantLogs[r.Target]); got != want {
			t.Errorf("job %s: console %.12s under faults, %.12s clean", r.Target, got, want)
		}
	}
	for _, name := range []string{
		"cas_blobs_healed_total",          // a planted corrupt blob was refetched
		"remote_worker_quarantines_total", // the flaky worker was quarantined
		"remote_steals_total",             // a lease queued behind the straggler moved
		"chaos_http_faults_total",         // the schedule injected faults
	} {
		if snap.Counters[name] < 1 {
			t.Errorf("%s = %d, want >= 1", name, snap.Counters[name])
		}
	}
	for _, name := range []string{"cas_remote_breaker_state", "remote_workers_quarantined"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s was never set", name)
		}
	}
	if t.Failed() {
		t.Logf("fault schedule %s; metrics %+v", plan.Fingerprint(), snap)
	}
}
