package fsrun

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/sim/rtlsim"
)

// buildCrashyInstalled installs a two-node workload: a quick echo node and
// a node that spins long enough for the fault injector to kill the run
// while it is mid-flight with checkpoints on disk.
func buildCrashyInstalled(t *testing.T) *install.Config {
	t.Helper()
	exe, err := asm.Assemble(`
_start:
    li s0, 800000
loop:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wlDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(wlDir, "ovl", "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(wlDir, "ovl", "bench", "loop"), isa.EncodeExecutable(exe), 0o755); err != nil {
		t.Fatal(err)
	}
	workloadJSON := `{
  "name": "w", "base": "br-base", "overlay": "ovl",
  "jobs": [
    {"name": "quick", "command": "echo quick-done"},
    {"name": "slow", "command": "/bench/loop"}
  ]}`
	if err := os.WriteFile(filepath.Join(wlDir, "w.json"), []byte(workloadJSON), 0o644); err != nil {
		t.Fatal(err)
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
	return cfg
}

// TestFiresimCrashResumeCycleExact is the cycle-exact-simulation half of
// the tentpole's launch-level determinism gate: a firesim run killed while
// one node is done and another is mid-flight (with live checkpoints), then
// re-run with -resume, reports per-node cycle counts bit-identical to an
// uninterrupted run.
func TestFiresimCrashResumeCycleExact(t *testing.T) {
	cfg := buildCrashyInstalled(t)
	outDir := t.TempDir() + "/out"
	manifest := filepath.Join(outDir, "manifest.jsonl")

	// Uninterrupted reference run, in its own output directory.
	straight, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/ref"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, j := range straight.Jobs {
		want[j.Name] = j.Cycles
	}
	if len(want) != 2 {
		t.Fatalf("reference run jobs = %d", len(want))
	}

	// Crashed run: sequential workers guarantee quick finishes first; the
	// watcher kills the run once slow has a checkpoint on disk.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	ptrPath := checkpoint.PointerPath(filepath.Join(outDir, ".ckpt"), "w-slow")
	go func() {
		for {
			if _, err := os.Stat(ptrPath); err == nil {
				cancel()
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err = Run(cfg, Options{
		RTL:          rtlsim.DefaultConfig(),
		Jobs:         1,
		OutputDir:    outDir,
		ManifestPath: manifest,
		Context:      ctx,
		CkptEvery:    50000,
	})
	close(done)
	if err == nil {
		t.Fatal("interrupted run reported success (node too short to be caught mid-flight?)")
	}
	if _, err := checkpoint.LoadPointer(ptrPath); err != nil {
		t.Fatalf("cancelled node's checkpoint pointer missing: %v", err)
	}

	// Resume: quick carries, slow restores mid-flight and finishes.
	var log bytes.Buffer
	res, err := Run(cfg, Options{
		RTL:          rtlsim.DefaultConfig(),
		OutputDir:    outDir,
		ManifestPath: manifest,
		Resume:       true,
		CkptEvery:    50000,
		Log:          &log,
	})
	if err != nil {
		t.Fatalf("resume: %v (log:\n%s)", err, log.String())
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("resume jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Cycles != want[j.Name] {
			t.Errorf("node %s cycles = %d after resume, want %d (uninterrupted)", j.Name, j.Cycles, want[j.Name])
		}
	}
	if !strings.Contains(log.String(), "w-quick already ok") {
		t.Errorf("resume log missing carry marker:\n%s", log.String())
	}

	// The summary accounts attempts across the interruption and marks both
	// nodes resumed; the journal compacts away; checkpoints are cleared.
	for _, r := range res.Summary.Jobs {
		if r.Status != launcher.StatusOK {
			t.Errorf("node %s status %s", r.Name, r.Status)
		}
		if r.Name == "w-slow" && (r.Prior != 1 || !r.Resumed) {
			t.Errorf("slow summary = %+v, want prior=1 resumed", r)
		}
	}
	if _, err := os.Stat(manifest + ".journal"); !os.IsNotExist(err) {
		t.Errorf("journal survived compaction: %v", err)
	}
	ptrs, err := checkpoint.Pointers(filepath.Join(outDir, ".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 0 {
		t.Errorf("pointers after successful resume: %+v", ptrs)
	}
}
