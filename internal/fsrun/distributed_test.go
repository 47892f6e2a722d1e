package fsrun

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
)

// startRTLFleet spins up a shared cache server plus n in-process workers,
// each over its own local store and checkpoint dir. The returned slices
// are index-aligned so tests can kill a specific worker mid-node.
func startRTLFleet(t *testing.T, n int) (cacheURL string, addrs []string, workers []*lremote.Worker, servers []*httptest.Server) {
	t.Helper()
	shared, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv := httptest.NewServer(casremote.NewServer(shared))
	t.Cleanup(cacheSrv.Close)
	for i := 0; i < n; i++ {
		store, err := cas.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := lremote.NewWorker(lremote.WorkerConfig{
			Runner: &lremote.ArtifactRunner{
				Store:   store,
				Remote:  casremote.NewClient(cacheSrv.URL, 0),
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
	return cacheSrv.URL, addrs, workers, servers
}

// TestFiresimDistributedCrashResumeCycleExact is the cycle-exact half of
// the distributed determinism gate: an RTL node's worker is killed
// mid-simulation (checkpoints live); the coordinator re-leases the node to
// the surviving worker, which restores from the handed-off checkpoint and
// finishes — in the SAME `firesim -workers` invocation — with cycles,
// pipeline stats, and console bytes bit-identical to an uninterrupted
// single-host run.
func TestFiresimDistributedCrashResumeCycleExact(t *testing.T) {
	cfg := buildCrashyInstalled(t)

	// Uninterrupted single-host reference run.
	straight, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/ref"})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := map[string]uint64{}
	wantStats := map[string]rtlsim.Stats{}
	wantLogs := map[string][]byte{}
	for _, j := range straight.Jobs {
		wantCycles[j.Name] = j.Cycles
		wantStats[j.Name] = j.Stats
		data, err := os.ReadFile(filepath.Join(j.OutputDir, "uartlog"))
		if err != nil {
			t.Fatal(err)
		}
		wantLogs[j.Name] = data
	}
	if len(wantCycles) != 2 {
		t.Fatalf("reference run jobs = %d", len(wantCycles))
	}

	// Fleet run with a fault injector: least-loaded assignment puts quick
	// on worker 0 and slow on worker 1; the watcher kills worker 1 — HTTP
	// listener and simulation both — once the coordinator has persisted a
	// checkpoint pointer for slow.
	cacheURL, addrs, workers, servers := startRTLFleet(t, 2)
	outDir := t.TempDir() + "/out"
	manifest := filepath.Join(outDir, "manifest.jsonl")
	reg := obs.NewRegistry()
	done := make(chan struct{})
	killed := make(chan struct{})
	ptrPath := checkpoint.PointerPath(filepath.Join(outDir, ".ckpt"), "w-slow")
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
	res, err := Run(cfg, Options{
		RTL:            rtlsim.DefaultConfig(),
		OutputDir:      outDir,
		ManifestPath:   manifest,
		CkptEvery:      50000,
		Workers:        addrs,
		RemoteCache:    cacheURL,
		WorkerLeaseTTL: 300 * time.Millisecond,
		WorkerPoll:     2 * time.Millisecond,
		Obs:            reg,
	})
	close(done)
	<-killed
	if err != nil {
		t.Fatalf("fleet run with worker death: %v", err)
	}

	// The handoff really happened.
	if got := reg.Counter("remote_lease_expiries_total").Value(); got < 1 {
		t.Fatalf("remote_lease_expiries_total = %d, want >= 1 (did the kill land mid-node?)", got)
	}

	if len(res.Jobs) != 2 {
		t.Fatalf("fleet jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Cycles != wantCycles[j.Name] {
			t.Errorf("node %s cycles = %d after handoff, want %d (uninterrupted)", j.Name, j.Cycles, wantCycles[j.Name])
		}
		if !reflect.DeepEqual(j.Stats, wantStats[j.Name]) {
			t.Errorf("node %s stats after handoff = %+v, want %+v", j.Name, j.Stats, wantStats[j.Name])
		}
		data, err := os.ReadFile(filepath.Join(j.OutputDir, "uartlog"))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(wantLogs[j.Name]) {
			t.Errorf("node %s console differs after handoff:\n%q\nwant:\n%q", j.Name, data, wantLogs[j.Name])
		}
	}

	// The summary accounts the lease handoff as a resumed second attempt.
	var slow *launcher.Result
	for i := range res.Summary.Jobs {
		if res.Summary.Jobs[i].Name == "w-slow" {
			slow = &res.Summary.Jobs[i]
		}
		if res.Summary.Jobs[i].Status != launcher.StatusOK {
			t.Errorf("node %s status = %s", res.Summary.Jobs[i].Name, res.Summary.Jobs[i].Status)
		}
	}
	if slow == nil || slow.Attempts != 2 || !slow.Resumed {
		t.Errorf("slow summary = %+v, want 2 attempts (one per worker) + resumed", slow)
	}

	// Terminal success cleared the journal and checkpoint pointers.
	if _, err := os.Stat(manifest + ".journal"); !os.IsNotExist(err) {
		t.Errorf("journal survived compaction: %v", err)
	}
	ptrs, err := checkpoint.Pointers(filepath.Join(outDir, ".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 0 {
		t.Errorf("pointers after successful fleet run: %+v", ptrs)
	}
}

// TestFiresimFleetRejectsNetworkedTopology: the fabric couples nodes
// through host-local state, so a fleet run must refuse it up front rather
// than silently simulate wrong timing.
func TestFiresimFleetRejectsNetworkedTopology(t *testing.T) {
	cfg := buildCrashyInstalled(t)
	cfg.Topology = "simple" // re-arm the fabric the helper disabled
	_, addrs, _, _ := startRTLFleet(t, 1)
	_, err := Run(cfg, Options{
		RTL:         rtlsim.DefaultConfig(),
		OutputDir:   t.TempDir(),
		Workers:     addrs,
		RemoteCache: "http://127.0.0.1:1", // never dialed: the check is earlier
	})
	if err == nil {
		t.Fatal("networked topology on a fleet must be refused")
	}
}

// TestFiresimFleetCarriesStuckAtFault: a bring-up run's stuck-at fault
// (§VI) is part of the cycle-exact configuration a leased job carries, so a
// worker simulates the same defective silicon the local run does — not a
// healthy core that reports the fault away.
func TestFiresimFleetCarriesStuckAtFault(t *testing.T) {
	exe, err := asm.Assemble(`
_start:
    li t0, 1234
    li t1, 5678
    mul a0, t0, t1
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wlDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(wlDir, "root"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"root/mul": isa.EncodeExecutable(exe),
		"w.json":   []byte(`{"name": "w", "base": "br-base", "overlay": "root", "command": "/mul"}`),
	} {
		if err := os.WriteFile(filepath.Join(wlDir, name), data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Install("w", core.InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = "no_net" // independent nodes: a fabric pins them to this host
	cacheURL, addrs, _, _ := startRTLFleet(t, 1)

	run := func(rtl rtlsim.Config, opts Options) (console string, cycles uint64) {
		t.Helper()
		opts.RTL, opts.OutputDir = rtl, t.TempDir()
		res, err := Run(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(res.Jobs[0].OutputDir, "uartlog"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data), res.Jobs[0].Cycles
	}
	faulty := rtlsim.DefaultConfig()
	faulty.FaultMask = 1 // the multiplier's low result bit stuck at 1
	healthyLog, _ := run(rtlsim.DefaultConfig(), Options{})
	localLog, localCycles := run(faulty, Options{})
	fleetLog, fleetCycles := run(faulty, Options{Workers: addrs, RemoteCache: cacheURL, WorkerPoll: 5 * time.Millisecond})

	// 1234*5678 = 7006652; the stuck bit makes it 7006653.
	if !strings.Contains(healthyLog, "7006652") || !strings.Contains(localLog, "7006653") {
		t.Fatalf("local runs: healthy console %q, faulty console %q", healthyLog, localLog)
	}
	if fleetLog != localLog || fleetCycles != localCycles {
		t.Errorf("fleet run of faulty silicon: %d cycles, console %q\nlocal: %d cycles, console %q",
			fleetCycles, fleetLog, localCycles, localLog)
	}
}
