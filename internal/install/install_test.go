package install

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleConfig() *Config {
	return &Config{
		Workload: "intspeed",
		Jobs: []JobConfig{
			{Name: "intspeed-600.perlbench_s", Bin: "/abs/bin", Img: "/abs/img", Outputs: []string{"/output"}},
			{Name: "intspeed-server", Bin: "/abs/serve", Bare: true},
		},
		PostRunHook:    "handle-results.py",
		PostRunHookDir: "/wl",
	}
}

func TestFireSimConnectorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	conn, err := GetConnector("firesim")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleConfig()
	if err := conn.Install(cfg, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != cfg.Workload || len(back.Jobs) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Jobs[1].Bare != true || back.Jobs[0].Img != "/abs/img" {
		t.Errorf("jobs wrong: %+v", back.Jobs)
	}
	if back.PostRunHook != "handle-results.py" {
		t.Error("hook lost")
	}
}

func TestConfigIsHumanReadableJSON(t *testing.T) {
	dir := t.TempDir()
	conn, _ := GetConnector("firesim")
	conn.Install(sampleConfig(), dir)
	data, err := os.ReadFile(filepath.Join(dir, ConfigFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Version-controllable: indented, newline-terminated JSON.
	if !strings.Contains(string(data), "\n  \"workload\"") || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("config not pretty-printed:\n%s", data)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("expected missing config error")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, ConfigFileName), []byte("{bad"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Error("expected bad JSON error")
	}
	os.WriteFile(filepath.Join(dir, ConfigFileName), []byte("{}"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Error("expected empty-config error")
	}
}

// TestLoadIgnoresRetiredTopology: configs installed before the run read
// the network from the jobs themselves still carry a "topology" key; they
// load as they are.
func TestLoadIgnoresRetiredTopology(t *testing.T) {
	dir := t.TempDir()
	old := `{"workload": "w", "topology": "simple", "jobs": [{"name": "w-a", "bin": "/abs/bin"}]}`
	if err := os.WriteFile(filepath.Join(dir, ConfigFileName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(dir)
	if err != nil || cfg.Workload != "w" || len(cfg.Jobs) != 1 {
		t.Fatalf("Load = %+v, %v", cfg, err)
	}
}

func TestUnknownConnector(t *testing.T) {
	if _, err := GetConnector("vcs"); err == nil {
		t.Error("expected unknown connector error")
	}
}

type fakeConnector struct{ name string }

func (f fakeConnector) Name() string                        { return f.name }
func (f fakeConnector) Install(cfg *Config, d string) error { return nil }

func TestPluggableConnectors(t *testing.T) {
	// §VI: "pluggable simulator connectors to expand the scope ... of the
	// install command".
	if err := RegisterConnector(fakeConnector{name: "test-sim"}); err != nil {
		t.Fatal(err)
	}
	if _, err := GetConnector("test-sim"); err != nil {
		t.Error("registered connector not found")
	}
	if err := RegisterConnector(fakeConnector{name: "test-sim"}); err == nil {
		t.Error("duplicate connector should fail")
	}
}

func TestVerilatorConnector(t *testing.T) {
	dir := t.TempDir()
	conn, err := GetConnector("verilator")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleConfig()
	if err := conn.Install(cfg, dir); err != nil {
		t.Fatal(err)
	}
	// config.json is still written for tooling.
	if _, err := Load(dir); err != nil {
		t.Errorf("verilator install should include config.json: %v", err)
	}
	args, err := PlusargsFor(dir, "intspeed-600.perlbench_s")
	if err != nil {
		t.Fatal(err)
	}
	if args["bootbin"][0] != "/abs/bin" || args["blkdev"][0] != "/abs/img" {
		t.Errorf("plusargs = %v", args)
	}
	if args["output"][0] != "/output" {
		t.Errorf("outputs = %v", args)
	}
	// Bare job has no image: no blkdev plusarg.
	args, err = PlusargsFor(dir, "intspeed-server")
	if err != nil {
		t.Fatal(err)
	}
	if _, has := args["blkdev"]; has {
		t.Error("bare job should not have blkdev")
	}
}

func TestVerilatorRejectsNetworkJobs(t *testing.T) {
	cfg := sampleConfig()
	cfg.Jobs[0].Devices = "pfa-rdma"
	conn, _ := GetConnector("verilator")
	if err := conn.Install(cfg, t.TempDir()); err == nil {
		t.Error("verilator cannot simulate networked jobs")
	}
}

// FuzzInstallLoad feeds Load arbitrary bytes as an installed config.json: it
// never panics, and it returns either an error or a config that names a
// workload and at least one job and reads back unchanged once installed.
func FuzzInstallLoad(f *testing.F) {
	good, _ := json.Marshal(sampleConfig())
	for _, seed := range []string{
		string(good), `{}`, `null`, `[`, `{"workload":"w","jobs":[]}`, `{"workload":"w","jobs":null}`,
		`{"workload":"w","jobs":[{}]}`, `{"workload":"","jobs":[{"name":"a"}]}`,
		`{"workload":"w","jobs":[{"name":"a","outputs":[]}],"strip":true} trailing`,
		`{"workload":"w","jobs":[{"name":"a","bare":"yes"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ConfigFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := Load(dir)
		if (cfg == nil) == (err == nil) {
			t.Fatalf("Load = %+v, %v: want a config or an error", cfg, err)
		}
		if err != nil {
			return
		}
		if cfg.Workload == "" || len(cfg.Jobs) == 0 {
			t.Fatalf("Load accepted a config without a workload or jobs: %+v", cfg)
		}
		again := t.TempDir()
		if err := (FireSimConnector{}).Install(cfg, again); err != nil {
			t.Fatal(err)
		}
		back, err := Load(again)
		if err != nil {
			t.Fatalf("an installed config does not load: %v", err)
		}
		if a, b := mustJSON(t, cfg), mustJSON(t, back); a != b {
			t.Errorf("config changed on install and load:\n%s\n%s", a, b)
		}
	})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
