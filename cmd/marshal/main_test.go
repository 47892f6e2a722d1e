package main

import (
	"os"
	"path/filepath"
	"testing"
)

// cliEnv writes workload files and returns (workloadDir, workDir).
func cliEnv(t *testing.T, files map[string]string) (string, string) {
	t.Helper()
	wlDir := t.TempDir()
	for name, content := range files {
		p := filepath.Join(wlDir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return wlDir, t.TempDir()
}

func TestCLIBuildLaunch(t *testing.T) {
	wlDir, workDir := cliEnv(t, map[string]string{
		"w.json": `{"name":"w","base":"br-base","command":"echo cli-test > /output/o.txt","outputs":["/output/o.txt"]}`,
	})
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "build", "w"}); code != 0 {
		t.Fatalf("build exit = %d", code)
	}
	if _, err := os.Stat(filepath.Join(workDir, "images", "w.img")); err != nil {
		t.Error("image not built")
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "launch", "w"}); code != 0 {
		t.Fatalf("launch exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(workDir, "runs", "w", "o.txt"))
	if err != nil || string(data) != "cli-test\n" {
		t.Errorf("launch output: %q %v", data, err)
	}
}

func TestCLITestCommand(t *testing.T) {
	wlDir, workDir := cliEnv(t, map[string]string{
		"w.json":       `{"name":"w","base":"br-base","command":"echo pass-marker","testing":{"refDir":"refs"}}`,
		"refs/uartlog": "pass-marker\n",
	})
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "test", "w"}); code != 0 {
		t.Errorf("passing test exit = %d", code)
	}
	// Failing reference.
	os.WriteFile(filepath.Join(wlDir, "refs", "uartlog"), []byte("absent\n"), 0o644)
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "test", "w"}); code != 1 {
		t.Errorf("failing test exit = %d, want 1", code)
	}
}

func TestCLIInstallCleanStatus(t *testing.T) {
	wlDir, workDir := cliEnv(t, map[string]string{
		"w.json": `{"name":"w","base":"br-base","command":"echo x"}`,
	})
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "install", "w"}); code != 0 {
		t.Fatal("install failed")
	}
	if _, err := os.Stat(filepath.Join(workDir, "firesim", "w", "config.json")); err != nil {
		t.Error("install config missing")
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "status", "w"}); code != 0 {
		t.Error("status failed")
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "clean", "w"}); code != 0 {
		t.Error("clean failed")
	}
	if _, err := os.Stat(filepath.Join(workDir, "images", "w.img")); !os.IsNotExist(err) {
		t.Error("clean left artifacts")
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "list"}); code != 0 {
		t.Error("list failed")
	}
}

func TestCLIErrors(t *testing.T) {
	wlDir, workDir := cliEnv(t, nil)
	base := []string{"-workdir", workDir, "-workload-dirs", wlDir}
	if code := run(append(base, "build", "ghost")); code != 1 {
		t.Errorf("missing workload exit = %d", code)
	}
	if code := run(append(base, "frobnicate", "w")); code != 2 {
		t.Errorf("unknown command exit = %d", code)
	}
	if code := run(append(base, "build")); code != 2 {
		t.Errorf("missing argument exit = %d", code)
	}
	if code := run(base); code != 2 {
		t.Errorf("no command exit = %d", code)
	}
}

func TestCLINoDisk(t *testing.T) {
	wlDir, workDir := cliEnv(t, map[string]string{
		"w.json": `{"name":"w","base":"br-base","command":"echo nodisk"}`,
	})
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "build", "-nodisk", "w"}); code != 0 {
		t.Fatal("nodisk build failed")
	}
	if _, err := os.Stat(filepath.Join(workDir, "images", "w-bin-nodisk")); err != nil {
		t.Error("nodisk binary missing")
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "launch", "-nodisk", "w"}); code != 0 {
		t.Error("nodisk launch failed")
	}
}

func TestCLIGraph(t *testing.T) {
	wlDir, workDir := cliEnv(t, map[string]string{
		"p.json": `{"name":"p","base":"br-base","overlay":"o"}`,
		"w.json": `{"name":"w","base":"p","command":"echo x","jobs":[{"name":"j0","command":"echo j"}]}`,
		"o/f":    "x",
	})
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "graph", "w"}); code != 0 {
		t.Errorf("graph exit = %d", code)
	}
	if code := run([]string{"-workdir", workDir, "-workload-dirs", wlDir, "graph", "ghost"}); code != 1 {
		t.Error("graph of missing workload should fail")
	}
}

// TestCLIVerifyFarm drives the verify-farm command through its three
// exit codes: 0 on a clean corpus, 1 when the seeded fault injects a
// real divergence, 2 on usage errors.
func TestCLIVerifyFarm(t *testing.T) {
	workDir := t.TempDir()
	if code := run([]string{"-workdir", workDir, "verify-farm",
		"-seeds", "1,2", "-rounds", "0", "-farm-seed", "9"}); code != 0 {
		t.Errorf("clean farm exit = %d, want 0", code)
	}
	if _, err := os.Stat(filepath.Join(workDir, "verify", "farm.jsonl")); err != nil {
		t.Error("farm manifest missing:", err)
	}
	if code := run([]string{"-workdir", workDir, "verify-farm",
		"-seeds", "7", "-rounds", "0", "-inject-fault", "fast:500:x27:0x1"}); code != 1 {
		t.Errorf("seeded-fault farm exit = %d, want 1", code)
	}
	if code := run([]string{"-workdir", workDir, "verify-farm", "-seeds", "zebra"}); code != 2 {
		t.Errorf("bad seed list exit = %d, want 2", code)
	}
	if code := run([]string{"-workdir", workDir, "verify-farm", "-seeds", "1", "extra-arg"}); code != 2 {
		t.Errorf("stray positional arg exit = %d, want 2", code)
	}
	if code := run([]string{"-workdir", workDir, "verify-farm", "-seeds", "1", "-inject-fault", "bogus"}); code != 2 {
		t.Errorf("bad fault spec exit = %d, want 2", code)
	}
}

// TestParseSeeds covers the -seeds grammar, negative seeds included.
func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want []int64
	}{
		{"5", []int64{5}},
		{"1,2,3", []int64{1, 2, 3}},
		{"1-4", []int64{1, 2, 3, 4}},
		{"7,7,10-12", []int64{7, 7, 10, 11, 12}},
		{"-3", []int64{-3}},
		{"-2-1", []int64{-2, -1, 0, 1}},
		{" 1 , 2 ", []int64{1, 2}},
	}
	for _, c := range cases {
		got, err := parseSeeds(c.in)
		if err != nil {
			t.Errorf("parseSeeds(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	for _, bad := range []string{"", ",", "x", "4-2", "1--", "1-2-3"} {
		if got, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) = %v, want error", bad, got)
		}
	}
}
