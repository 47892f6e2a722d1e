package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/core"
)

func installedWorkload(t *testing.T, workloadJSON string, extra map[string]string) (string, string) {
	t.Helper()
	wlDir := t.TempDir()
	for name, content := range extra {
		p := filepath.Join(wlDir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	return dir, t.TempDir()
}

func TestFireSimCLIRun(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo firesim-cli > /output/o.txt","outputs":["/output/o.txt"]}`, nil)
	code := run([]string{"-config", configDir, "-output", outDir})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "w", "o.txt"))
	if err != nil || !strings.Contains(string(data), "firesim-cli") {
		t.Errorf("output: %q %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "w", "uartlog")); err != nil {
		t.Error("uartlog missing")
	}
}

func TestFireSimCLIVerify(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo verify-me","testing":{"refDir":"refs"}}`,
		map[string]string{"refs/uartlog": "verify-me\n"})
	if code := run([]string{"-config", configDir, "-output", outDir, "-verify"}); code != 0 {
		t.Errorf("verify should pass, exit = %d", code)
	}
}

func TestFireSimCLIVerifyFails(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo something","testing":{"refDir":"refs"}}`,
		map[string]string{"refs/uartlog": "not-present\n"})
	if code := run([]string{"-config", configDir, "-output", outDir, "-verify"}); code != 1 {
		t.Errorf("verify should fail, exit = %d", code)
	}
}

func TestFireSimCLIPredictorFlag(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo x"}`, nil)
	if code := run([]string{"-config", configDir, "-output", outDir, "-predictor", "gshare"}); code != 0 {
		t.Error("gshare run failed")
	}
	if code := run([]string{"-config", configDir, "-output", outDir, "-predictor", "oracle"}); code != 1 {
		t.Error("bad predictor should fail")
	}
}

// TestFireSimCLICacheFlags: -icache-kib and -dcache-kib reach the
// configuration the run simulates. 3 KiB of 64-byte lines in 4 ways is 12
// sets, which the cache model refuses; a size that is not a number is a
// usage error.
func TestFireSimCLICacheFlags(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo x"}`, nil)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-icache-kib", "8", "-dcache-kib", "32"}, 0},
		{[]string{"-icache-kib", "3"}, 1},
		{[]string{"-dcache-kib", "3"}, 1},
		{[]string{"-icache-kib", "x"}, 2},
	} {
		if code := run(append([]string{"-config", configDir, "-output", outDir}, tc.args...)); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

// TestFireSimCLIProfiles checks -cpuprofile and -memprofile both flush
// non-empty pprof files when the run returns — the same deferred path an
// interrupt drain exits through.
func TestFireSimCLIProfiles(t *testing.T) {
	configDir, outDir := installedWorkload(t,
		`{"name":"w","base":"br-base","command":"echo profiled"}`, nil)
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	if code := run([]string{"-config", configDir, "-output", outDir,
		"-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for name, p := range map[string]string{"cpuprofile": cpu, "memprofile": mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s not written: %v", name, err)
		} else if info.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}

	// A profile path that cannot be written fails before the run starts.
	blocked := filepath.Join(t.TempDir(), "a-file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if code := run([]string{"-config", configDir, "-output", out, flag, filepath.Join(blocked, "p.pprof")}); code != 1 {
			t.Errorf("%s under a file: exit = %d, want 1", flag, code)
		}
		if _, err := os.Stat(filepath.Join(out, "manifest.jsonl")); err == nil {
			t.Errorf("%s under a file: the run went ahead", flag)
		}
	}
}

func TestFireSimCLIArgErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Errorf("missing args exit = %d", code)
	}
	if code := run([]string{"-config", "/nonexistent", "-output", t.TempDir()}); code != 1 {
		t.Errorf("bad config exit = %d", code)
	}
}
