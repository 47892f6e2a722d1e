package core

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/workgen"
)

// startSharedCache stands up the HTTP cache server a worker fleet shares
// and points the Marshal at it (before its lazy cache opens).
func startSharedCache(t testing.TB, m *Marshal) *httptest.Server {
	t.Helper()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(casremote.NewServer(store))
	t.Cleanup(srv.Close)
	m.RemoteCache = srv.URL
	return srv
}

// startWorkerFleet spins up n in-process `marshal worker serve` daemons,
// each over its own local store and checkpoint dir — separate machines in
// all but address space — sharing the cache server at cacheURL. The
// returned slices are index-aligned so tests can kill a specific worker
// mid-run.
func startWorkerFleet(t testing.TB, cacheURL string, n int) (addrs []string, workers []*lremote.Worker, servers []*httptest.Server) {
	t.Helper()
	for i := 0; i < n; i++ {
		store, err := cas.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := lremote.NewWorker(lremote.WorkerConfig{
			Runner: &lremote.ArtifactRunner{
				Store:   store,
				Remote:  casremote.NewClient(cacheURL, 0),
				CkptDir: t.TempDir(),
				Obs:     obs.NewRegistry(),
			},
			Slots: 1,
			Obs:   obs.NewRegistry(),
		})
		srv := httptest.NewServer(w)
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		workers = append(workers, w)
		servers = append(servers, srv)
		addrs = append(addrs, srv.Listener.Addr().String())
	}
	return addrs, workers, servers
}

// readRunArtifacts captures each result's cycle count and uartlog bytes
// before a later launch overwrites the run directories.
func readRunArtifacts(t *testing.T, results []*RunResult) (cycles map[string]uint64, logs map[string][]byte) {
	t.Helper()
	cycles, logs = map[string]uint64{}, map[string][]byte{}
	for _, r := range results {
		data, err := os.ReadFile(r.Uartlog)
		if err != nil {
			t.Fatalf("uartlog for %s: %v", r.Target, err)
		}
		cycles[r.Target], logs[r.Target] = r.Cycles, data
	}
	return cycles, logs
}

// TestDistributedLaunchMatchesLocal: the same workload launched locally
// and across a 2-worker fleet produces identical cycle counts, identical
// console bytes, and an identical-shaped manifest — distribution is an
// execution detail, not a semantic one.
func TestDistributedLaunchMatchesLocal(t *testing.T) {
	e := newEnv(t)
	// A private registry isolates the remote_jobs_done_total assertion
	// from other distributed tests in the process (shuffle-proof).
	e.m.Obs = obs.NewRegistry()
	srv := startSharedCache(t, e.m)
	e.write(t, "dist.json", `{
  "name": "dist", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo from-a"},
    {"name": "b", "command": "echo from-b"}
  ]}`)

	ref, err := e.m.Launch("dist", LaunchOpts{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, wantLogs := readRunArtifacts(t, ref)

	addrs, _, _ := startWorkerFleet(t, srv.URL, 2)
	res, err := e.m.Launch("dist", LaunchOpts{Workers: addrs, WorkerPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("fleet results = %d", len(res))
	}
	for _, r := range res {
		if r.Cycles != wantCycles[r.Target] {
			t.Errorf("job %s cycles = %d on fleet, want %d (local)", r.Target, r.Cycles, wantCycles[r.Target])
		}
		data, err := os.ReadFile(r.Uartlog)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(wantLogs[r.Target]) {
			t.Errorf("job %s uartlog differs on fleet:\n%s\nwant:\n%s", r.Target, data, wantLogs[r.Target])
		}
	}
	recs := readManifest(t, e.m.LastManifest)
	if len(recs) != 2 {
		t.Fatalf("manifest records = %d", len(recs))
	}
	for _, r := range recs {
		if r.Status != launcher.StatusOK || r.Attempts != 1 {
			t.Errorf("manifest record = %+v, want ok in one attempt", r)
		}
	}
	if got := e.m.Obs.Counter("remote_jobs_done_total").Value(); got != 2 {
		t.Errorf("remote_jobs_done_total = %d", got)
	}
}

// TestDistributedCrashResumeBitIdentical is the distributed half of the
// determinism gate: a worker killed mid-job (checkpoints live) forfeits
// its lease; the coordinator re-leases the job to the surviving worker,
// which restores from the handed-off checkpoint and finishes — in the SAME
// `marshal launch` invocation — with cycle counts and console bytes
// bit-identical to an uninterrupted local run. The handoff follows the
// packs: the shared cache receives each snapshot's pack once and, beside
// the packs, a number of blobs that does not grow with the run.
func TestDistributedCrashResumeBitIdentical(t *testing.T) {
	e := newEnv(t)
	hub, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	uploads := map[string]int{} // blob digest -> PUTs
	cache := casremote.NewServer(hub)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if digest, ok := strings.CutPrefix(r.URL.Path, "/v1/blobs/"); ok && r.Method == http.MethodPut {
			mu.Lock()
			uploads[digest]++
			mu.Unlock()
		}
		cache.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	e.m.RemoteCache = srv.URL
	writeLoopOverlay(t, e, 15000000)
	e.write(t, "crashy.json", `{
  "name": "crashy", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [
    {"name": "quick", "command": "echo quick-done"},
    {"name": "slow", "command": "/bench/loop"}
  ]}`)

	// Uninterrupted local reference run (no checkpointing, no fleet).
	ref, err := e.m.Launch("crashy", LaunchOpts{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, wantLogs := readRunArtifacts(t, ref)
	if len(wantCycles) != 2 {
		t.Fatalf("reference run results = %d", len(wantCycles))
	}

	// Fleet run with a fault injector: least-loaded assignment puts quick
	// on worker 0 and slow on worker 1; the watcher kills worker 1 — HTTP
	// listener and simulation both — as soon as the coordinator has
	// persisted a checkpoint pointer for slow.
	addrs, workers, servers := startWorkerFleet(t, srv.URL, 2)
	done := make(chan struct{})
	killed := make(chan struct{})
	ptrPath := checkpoint.PointerPath(e.m.CkptDir(), "crashy-slow")
	go func() {
		defer close(killed)
		for {
			if _, err := os.Stat(ptrPath); err == nil {
				servers[1].CloseClientConnections()
				servers[1].Close()
				workers[1].Close()
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	res, err := e.m.Launch("crashy", LaunchOpts{
		Workers:        addrs,
		CkptEvery:      100000,
		WorkerLeaseTTL: 300 * time.Millisecond,
		WorkerPoll:     2 * time.Millisecond,
	})
	close(done)
	<-killed
	if err != nil {
		t.Fatalf("fleet launch with worker death: %v", err)
	}

	// The handoff really happened: the coordinator declared worker 1 dead
	// and the job took a second attempt on worker 0.
	if got := e.m.Obs.Counter("remote_lease_expiries_total").Value(); got < 1 {
		t.Fatalf("remote_lease_expiries_total = %d, want >= 1 (did the kill land mid-job?)", got)
	}

	if len(res) != 2 {
		t.Fatalf("fleet results = %d", len(res))
	}
	for _, r := range res {
		if r.Cycles != wantCycles[r.Target] {
			t.Errorf("job %s cycles = %d after handoff, want %d (uninterrupted local)", r.Target, r.Cycles, wantCycles[r.Target])
		}
		data, err := os.ReadFile(r.Uartlog)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(wantLogs[r.Target]) {
			t.Errorf("job %s console differs after handoff:\n%q\nwant:\n%q", r.Target, data, wantLogs[r.Target])
		}
		if r.ExitCode != 0 {
			t.Errorf("job %s exit = %d", r.Target, r.ExitCode)
		}
	}

	// The manifest is the coordinator's: slow took two attempts (one per
	// worker) and is marked resumed; quick is untouched.
	recs := readManifest(t, e.m.LastManifest)
	if len(recs) != 2 {
		t.Fatalf("manifest records = %d", len(recs))
	}
	for _, r := range recs {
		if r.Status != launcher.StatusOK {
			t.Errorf("manifest %s status = %s", r.Job, r.Status)
		}
		if r.Cycles != wantCycles[r.Job] {
			t.Errorf("manifest %s cycles = %d, want %d", r.Job, r.Cycles, wantCycles[r.Job])
		}
	}
	var slow *launcher.Record
	for i := range recs {
		if recs[i].Job == "crashy-slow" {
			slow = &recs[i]
		}
	}
	if slow == nil || slow.Attempts != 2 || !slow.Resumed {
		t.Errorf("slow manifest record = %+v, want 2 attempts (one per worker) + resumed", slow)
	}

	// Terminal success cleared the coordinator's checkpoint pointers.
	ptrs, err := checkpoint.Pointers(e.m.CkptDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 0 {
		t.Errorf("pointers after successful fleet run: %+v", ptrs)
	}

	// A snapshot costs the shared cache one upload, its pack, and the
	// survivor re-sends none of what it fetched. Everything else that went
	// up does not grow with the run: boot binary, disk image, each job's
	// console, the consoles of the execs slow completed before its loop, per
	// attempt (13 requests when this was written), and the few snapshots the
	// dead worker pushed but never announced, which the survivor takes again
	// bit for bit.
	const otherUploads = 24
	mu.Lock()
	defer mu.Unlock()
	packs, total := 0, 0
	for digest, n := range uploads {
		total += n
		if data, err := hub.Get(digest); err == nil && strings.HasPrefix(string(data), "FMCK") {
			packs++
		}
	}
	if packs < 100 {
		t.Errorf("%d packs on the shared cache: the run is too short for the bound below to mean anything", packs)
	}
	if total > packs+otherUploads {
		t.Errorf("%d uploads for %d snapshots, want at most snapshots + %d", total, packs, otherUploads)
	}
}

// TestDistributedJobsOverlap proves the fleet actually runs jobs
// concurrently — the property behind the speedup — in a way that holds on
// any host: while a 2-job launch is in flight, both workers must report a
// running job at the same instant. (Wall-clock speedup itself needs real
// cores; TestDistributedSpeedup gates on them.)
func TestDistributedJobsOverlap(t *testing.T) {
	e := newEnv(t)
	srv := startSharedCache(t, e.m)
	writeLoopOverlay(t, e, 15000000)
	e.write(t, "par2.json", `{
  "name": "par2", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [
    {"name": "j0", "command": "/bench/loop"},
    {"name": "j1", "command": "/bench/loop"}
  ]}`)

	addrs, _, _ := startWorkerFleet(t, srv.URL, 2)
	launched := make(chan error, 1)
	go func() {
		_, err := e.m.Launch("par2", LaunchOpts{Workers: addrs, WorkerPoll: 2 * time.Millisecond})
		launched <- err
	}()

	running := func(addr string) bool {
		st, err := lremote.NewWorkerClient(addr, 0).Status(context.Background())
		if err != nil {
			return false
		}
		for _, s := range st.Jobs {
			if s == lremote.JobRunning {
				return true
			}
		}
		return false
	}
	overlapped := false
	deadline := time.Now().Add(10 * time.Second)
	for !overlapped && time.Now().Before(deadline) {
		if running(addrs[0]) && running(addrs[1]) {
			overlapped = true
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-launched; err != nil {
		t.Fatal(err)
	}
	if !overlapped {
		t.Error("never observed both workers simulating at once; fleet is serializing jobs")
	}
}

// TestDistributedSpeedup is the fleet's reason to exist, asserted: four
// workers finish a 4-job workload more than 2x faster than one worker.
// Wall-clock ratios are hostile to oversubscribed CI hosts, so the gate is
// opt-in — scripts/distributed_gate.sh sets MARSHAL_DIST_SPEEDUP=1.
func TestDistributedSpeedup(t *testing.T) {
	if os.Getenv("MARSHAL_DIST_SPEEDUP") == "" {
		t.Skip("set MARSHAL_DIST_SPEEDUP=1 to run the fleet speedup gate")
	}
	if runtime.NumCPU() < 4 {
		// In-process workers share this host's cores; CPU-bound simulation
		// cannot finish faster than the cores allow, no matter how well the
		// coordinator spreads it.
		t.Skipf("fleet wall-clock speedup needs >= 4 host cores, have %d", runtime.NumCPU())
	}
	e := newEnv(t)
	srv := startSharedCache(t, e.m)
	// Long enough that simulation dwarfs per-job artifact + boot overhead.
	writeLoopOverlay(t, e, 100000000)
	e.write(t, "par.json", `{
  "name": "par", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [
    {"name": "j0", "command": "/bench/loop"},
    {"name": "j1", "command": "/bench/loop"},
    {"name": "j2", "command": "/bench/loop"},
    {"name": "j3", "command": "/bench/loop"}
  ]}`)
	if _, err := e.m.Build("par", BuildOpts{}); err != nil {
		t.Fatal(err)
	}

	elapsed := func(n int) time.Duration {
		addrs, _, _ := startWorkerFleet(t, srv.URL, n)
		start := time.Now()
		if _, err := e.m.Launch("par", LaunchOpts{Workers: addrs, WorkerPoll: 2 * time.Millisecond}); err != nil {
			t.Fatalf("launch on %d worker(s): %v", n, err)
		}
		return time.Since(start)
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	t.Logf("1 worker: %s, 4 workers: %s (%.2fx)", t1, t4, float64(t1)/float64(t4))
	if t4*2 >= t1 {
		t.Errorf("4-worker fleet not >2x faster: 1 worker %s, 4 workers %s", t1, t4)
	}
}

// BenchmarkDistributedLaunch times a `workgen -jobs 4` workload on fleets
// of 1, 2, and 4 workers — the paper's parallel-simulation scaling story,
// measured over the wire.
func BenchmarkDistributedLaunch(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			wlDir := b.TempDir()
			if _, err := workgen.EmitParallelWorkload(wlDir, 4, "test"); err != nil {
				b.Fatal(err)
			}
			m, err := New(b.TempDir(), wlDir)
			if err != nil {
				b.Fatal(err)
			}
			srv := startSharedCache(b, m)
			addrs, _, _ := startWorkerFleet(b, srv.URL, n)
			if _, err := m.Build("parjobs", BuildOpts{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Launch("parjobs", LaunchOpts{Workers: addrs, WorkerPoll: 2 * time.Millisecond}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
