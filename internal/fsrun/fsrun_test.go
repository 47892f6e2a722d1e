package fsrun

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/sim/rtlsim"
)

// buildInstalled creates a workload, installs it, and returns the config.
func buildInstalled(t *testing.T, workloadJSON string, extraFiles map[string]string) (*install.Config, string) {
	t.Helper()
	wlDir := t.TempDir()
	workDir := t.TempDir()
	for name, content := range extraFiles {
		p := filepath.Join(wlDir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		mode := os.FileMode(0o644)
		if strings.HasSuffix(name, ".sh") {
			mode = 0o755
		}
		if err := os.WriteFile(p, []byte(content), mode); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(wlDir, "w.json"), []byte(workloadJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(workDir, wlDir)
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
	return cfg, workDir
}

func TestRunSingleJob(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "command": "echo rtl-run-output > /output/res.txt",
  "outputs": ["/output/res.txt"]
}`, nil)
	res, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/out"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	jr := res.Jobs[0]
	if jr.ExitCode != 0 || jr.Cycles == 0 {
		t.Errorf("job result = %+v", jr)
	}
	uart, err := os.ReadFile(filepath.Join(jr.OutputDir, "uartlog"))
	if err != nil || !strings.Contains(string(uart), "OpenSBI") {
		t.Errorf("uartlog: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(jr.OutputDir, "res.txt"))
	if err != nil || !strings.Contains(string(data), "rtl-run-output") {
		t.Errorf("output file: %q %v", data, err)
	}
}

func TestRunDeterministicCycles(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base", "command": "echo deterministic"
}`, nil)
	run := func() uint64 {
		res, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/o"})
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[0].Cycles
	}
	if run() != run() {
		t.Error("RTL cycles not deterministic across runs")
	}
}

func TestMultiJobParallelMatchesSerial(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo job-a > /output/r.txt", "outputs": ["/output/r.txt"]},
    {"name": "b", "command": "echo job-b > /output/r.txt", "outputs": ["/output/r.txt"]},
    {"name": "c", "command": "echo job-c > /output/r.txt", "outputs": ["/output/r.txt"]}
  ]}`, nil)
	serial, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/s"})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/p", Jobs: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Jobs) != 3 || len(parallel.Jobs) != 3 {
		t.Fatalf("job counts: %d %d", len(serial.Jobs), len(parallel.Jobs))
	}
	// Determinism across scheduling: per-job cycles identical.
	sc := map[string]uint64{}
	for _, j := range serial.Jobs {
		sc[j.Name] = j.Cycles
	}
	for _, j := range parallel.Jobs {
		if sc[j.Name] != j.Cycles {
			t.Errorf("job %s cycles differ: serial=%d parallel=%d", j.Name, sc[j.Name], j.Cycles)
		}
	}
}

func TestVerifyAgainstRefs(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "command": "echo verified-marker",
  "testing": {"refDir": "refs"}
}`, map[string]string{"refs/uartlog": "verified-marker\n"})
	outDir := t.TempDir() + "/out"
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: outDir}); err != nil {
		t.Fatal(err)
	}
	failures, err := Verify(cfg, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("verify failures: %v", failures)
	}
}

func TestPostRunHookRuns(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "command": "echo x",
  "post-run-hook": "hook.sh"
}`, map[string]string{"hook.sh": "#!/bin/sh\ntouch \"$1/hook-ran\"\n"})
	outDir := t.TempDir() + "/out"
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: outDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "hook-ran")); err != nil {
		t.Error("post-run hook did not run")
	}
}

func TestMissingOutputDir(t *testing.T) {
	cfg := &install.Config{Workload: "w", Jobs: []install.JobConfig{{Name: "w"}}}
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig()}); err == nil {
		t.Error("expected error for missing output dir")
	}
}

func TestRunBadArtifactPaths(t *testing.T) {
	cfg := &install.Config{
		Workload: "w",
		Jobs:     []install.JobConfig{{Name: "w", Bin: "/nonexistent/bin"}},
	}
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/o"}); err == nil {
		t.Error("expected error for missing bin")
	}
}

func TestRunBadDeviceProfile(t *testing.T) {
	cfg, _ := buildInstalled(t, `{"name":"w","base":"br-base","command":"echo x"}`, nil)
	cfg.Jobs[0].Devices = "not-a-device"
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/o"}); err == nil {
		t.Error("expected error for unknown device profile")
	}
}

func TestVerifyWithoutRefs(t *testing.T) {
	cfg := &install.Config{Workload: "w", Jobs: []install.JobConfig{{Name: "w"}}}
	if _, err := Verify(cfg, t.TempDir()); err == nil {
		t.Error("expected error when workload has no refs")
	}
}

func TestVerifyPerJobSubdirs(t *testing.T) {
	refDir := t.TempDir()
	os.MkdirAll(filepath.Join(refDir, "a"), 0o755)
	os.WriteFile(filepath.Join(refDir, "a", "uartlog"), []byte("job-a-marker\n"), 0o644)

	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo job-a-marker"},
    {"name": "b", "command": "echo job-b-marker"}
  ],
  "testing": {"refDir": "refs"}
}`, map[string]string{"refs/uartlog": "job-\n", "refs/a/uartlog": "job-a-marker\n"})
	outDir := t.TempDir() + "/o"
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: outDir}); err != nil {
		t.Fatal(err)
	}
	failures, err := Verify(cfg, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("failures: %v", failures)
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	cfg, _ := buildInstalled(t, `{
  "name": "w", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo ok"},
    {"name": "b", "command": "echo ok"}
  ]}`, nil)
	cfg.Jobs[1].Bin = "/nonexistent"
	if _, err := Run(cfg, Options{RTL: rtlsim.DefaultConfig(), OutputDir: t.TempDir() + "/o", Jobs: runtime.GOMAXPROCS(0)}); err == nil {
		t.Error("expected parallel job error to propagate")
	}
}

// TestTracePath pins the trace-file naming: fsrun's default bare
// "manifest.jsonl" and core-style "<name>.manifest.jsonl" both swap the
// suffix; anything else gets ".trace.jsonl" appended.
func TestTracePath(t *testing.T) {
	cases := map[string]string{
		"out/manifest.jsonl":        "out/trace.jsonl",
		"runs/suite.manifest.jsonl": "runs/suite.trace.jsonl",
		"manifest.jsonl":            "trace.jsonl",
		"out/records.jsonl":         "out/records.jsonl.trace.jsonl",
		"out/mymanifest.jsonl":      "out/mymanifest.jsonl.trace.jsonl",
	}
	for in, want := range cases {
		if got := TracePath(in); got != want {
			t.Errorf("TracePath(%q) = %q, want %q", in, got, want)
		}
	}
}
