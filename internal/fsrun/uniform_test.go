package fsrun

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/core"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
)

// oneFailedAttempt asserts a manifest holds exactly one record: failed,
// after a single attempt.
func oneFailedAttempt(t *testing.T, frontEnd, manifest string) {
	t.Helper()
	recs, _, err := launcher.ReadManifest(manifest)
	if err != nil {
		t.Fatalf("%s: %v", frontEnd, err)
	}
	if len(recs) != 1 || recs[0].Status != launcher.StatusFailed || recs[0].Attempts != 1 {
		t.Errorf("%s: manifest %+v, want one failed record with attempts=1", frontEnd, recs)
	}
}

// TestCorruptBinaryFailsOnceEverywhere: an undecodable boot binary fails
// the same way on every attempt, so no front end retries it — with
// Retries: 3, local `launch`, local `firesim` and a worker each record
// exactly one attempt. They agree because the one kernel decides.
func TestCorruptBinaryFailsOnceEverywhere(t *testing.T) {
	garbage := []byte("this is not a boot binary")

	// marshal launch: a built binary corrupted before the launch (the
	// up-to-date build does not rewrite it). It is replaced, as an editor
	// would: the built file is read-only, a hard link to its cache blob.
	wlDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(wlDir, "w.json"), []byte(`{"name":"w","base":"br-base","command":"echo x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Build("w", core.BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := hostutil.WriteFileAtomic(m.BinPath("w"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Launch("w", core.LaunchOpts{Retries: 3, RetryBackoff: time.Millisecond}); err == nil {
		t.Error("launch of a corrupt binary succeeded")
	}
	oneFailedAttempt(t, "marshal launch", m.LastManifest)

	// firesim: an installed node whose binary is corrupted after install.
	cfg, _ := buildInstalled(t, `{"name":"w","base":"br-base","command":"echo x"}`, nil)
	if err := hostutil.WriteFileAtomic(cfg.Jobs[0].Bin, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	manifest := filepath.Join(out, "manifest.jsonl")
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: out, ManifestPath: manifest, Retries: 3}); err == nil {
		t.Error("firesim run of a corrupt binary succeeded")
	}
	oneFailedAttempt(t, "firesim", manifest)

	// worker: a lease naming a corrupt blob in the shared cache.
	cacheURL, addrs, _, _ := startRTLFleet(t, 1)
	digest, err := lremote.PutBlob(context.Background(), casremote.NewClient(cacheURL, 0), garbage)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jnl, err := launcher.OpenJournal(filepath.Join(dir, "m.journal"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := lremote.Launch(context.Background(),
		[]lremote.JobSpec{{Name: "w", Sim: "rtl", Bin: digest, Retries: 3}},
		lremote.CoordOptions{Workers: addrs, Journal: jnl, Poll: 5 * time.Millisecond, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	if err := launcher.Compact(filepath.Join(dir, "m.journal"), filepath.Join(dir, "m"), sum); err != nil {
		t.Fatal(err)
	}
	oneFailedAttempt(t, "worker", filepath.Join(dir, "m"))
}

// TestFailedRunLeavesNoStaleOutputs: a node's output directory is wiped
// before the attempt, so when a re-run fails, the previous run's uartlog
// and outputs are gone rather than looking current.
func TestFailedRunLeavesNoStaleOutputs(t *testing.T) {
	cfg, _ := buildInstalled(t, `{"name":"w","base":"br-base",
	  "command":"echo ok > /output/res.txt","outputs":["/output/res.txt"]}`, nil)
	out := t.TempDir()
	res, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: out})
	if err != nil {
		t.Fatal(err)
	}
	nodeDir := res.Jobs[0].OutputDir
	for _, name := range []string{"uartlog", "res.txt"} {
		if _, err := os.Stat(filepath.Join(nodeDir, name)); err != nil {
			t.Fatalf("first run left no %s: %v", name, err)
		}
	}
	good, err := os.ReadFile(cfg.Jobs[0].Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := hostutil.WriteFileAtomic(cfg.Jobs[0].Bin, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: out}); err == nil {
		t.Fatal("run of a truncated binary succeeded")
	}
	for _, name := range []string{"uartlog", "res.txt"} {
		if _, err := os.Stat(filepath.Join(nodeDir, name)); err == nil {
			t.Errorf("failed re-run left the previous run's %s in place", name)
		}
	}
}
