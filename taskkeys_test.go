package firemarshal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

// The build task keys of known workloads, pinned. A task's key is the
// name its outputs are cached under, so a change that moves one turns
// every deployed cache cold for that task. The cases are the workloads the
// example programs under examples/ write, the shipped workloads that need
// no host toolchain, and a 4-deep chain that spreads every inherited host
// path over its own directory. testdata/taskkeys.json holds the keys; on a
// mismatch the test logs the whole map it got.

// keyCase writes a workload tree under dir and names what to build.
type keyCase struct {
	name  string
	write func(t *testing.T, dir string) (searchPath []string, workloads []string)
}

var keyCases = []keyCase{
	{"quickstart", func(t *testing.T, dir string) ([]string, []string) {
		put(t, dir, "quickstart.json", `{
  "name": "quickstart",
  "base": "br-base",
  "command": "echo hello from the guest > /output/greeting.txt; echo quickstart finished",
  "outputs": ["/output/greeting.txt"]
}`)
		return []string{dir}, []string{"quickstart"}
	}},
	{"education", func(t *testing.T, dir string) ([]string, []string) {
		putExe(t, dir, "overlay/matmul", workgen.MatmulSource(16, 4))
		put(t, dir, "gemmini.kfrag", "CONFIG_ACCEL_GEMM=y\n")
		put(t, dir, "gemmini-base.json", `{
  "name": "gemmini-base",
  "base": "br-base",
  "linux": { "config": "gemmini.kfrag" },
  "spike": "gemmini-spike",
  "overlay": "overlay"
}`)
		put(t, dir, "assignment.json", `{
  "name": "assignment",
  "base": "gemmini-base",
  "command": "/matmul > /output/result.csv",
  "outputs": ["/output/result.csv"]
}`)
		return []string{dir}, []string{"assignment"}
	}},
	{"pfa", func(t *testing.T, dir string) ([]string, []string) {
		putExe(t, dir, "pfa-test-root/pfa/latency", workgen.PFAClientSource(8))
		putExe(t, dir, "serve", workgen.PFAServerSource(8))
		put(t, dir, "pfa-linux.kfrag", "CONFIG_PFA=y\n")
		put(t, dir, "pfa-base.json", `{
  "name": "pfa-base",
  "base": "buildroot",
  "linux": { "config": "pfa-linux.kfrag" },
  "overlay": "pfa-test-root/",
  "spike": "pfa-spike"
}`)
		put(t, dir, "latency-microbenchmark.json", `{
  "name": "latency-microbenchmark",
  "base": "pfa-base",
  "jobs": [
    { "name": "client",
      "command": "/pfa/latency > /output/latency.csv",
      "outputs": ["/output/latency.csv"] },
    { "name": "server",
      "base": "bare-metal",
      "bin": "serve" }
  ]
}`)
		return []string{dir}, []string{"latency-microbenchmark"}
	}},
	{"spec2017", func(t *testing.T, dir string) ([]string, []string) {
		var jobs []string
		for _, b := range workgen.IntSpeedSuite() {
			putExe(t, dir, "overlay/intspeed/spec/bin/"+b.Name, b.Source("test"))
			jobs = append(jobs, fmt.Sprintf(`{ "name": %q, "command": "/intspeed.sh %s --threads 1" }`, b.Name, b.Name))
		}
		put(t, dir, "overlay/intspeed/intspeed.sh", workgen.IntSpeedRunScript())
		put(t, dir, "intspeed.json", fmt.Sprintf(`{
  "name": "intspeed",
  "base": "buildroot",
  "overlay": "overlay/intspeed",
  "rootfs-size": "3GiB",
  "outputs": ["/output"],
  "jobs": [%s]
}`, strings.Join(jobs, ",\n")))
		return []string{dir}, []string{"intspeed"}
	}},
	{"shipped", func(t *testing.T, dir string) ([]string, []string) {
		for _, f := range []string{"hello.json", "nodisk-smoke.yaml", "fedora-packages.json", "install-python.sh"} {
			data, err := os.ReadFile(filepath.Join("workloads", f))
			if err != nil {
				t.Fatal(err)
			}
			put(t, dir, f, string(data))
		}
		return []string{dir}, []string{"hello", "nodisk-smoke", "fedora-packages"}
	}},
	{"chain4", writeChain4},
}

// writeChain4 writes k1 <- k2 <- k3 <- k4, one level per directory. Kernel
// fragments, module sources, the kernel source, firmware build-args, the
// post-run-hook and testing.refDir are declared at different levels, and
// a module of k1 is overridden by k3.
func writeChain4(t *testing.T, dir string) ([]string, []string) {
	d := func(i int) string { return filepath.Join(dir, fmt.Sprintf("d%d", i)) }
	put(t, d(1), "k1.kfrag", "CONFIG_K1=y\n")
	put(t, d(1), "mods/m1/m1.c", "m1\n")
	put(t, d(1), "mods/m2/m2.c", "m2 from k1\n")
	put(t, d(1), "k1.json", `{"name":"k1","base":"br-base",
  "linux":{"config":"k1.kfrag","modules":{"m1":"mods/m1","m2":"mods/m2"}},
  "firmware":{"build-args":["--k1"]},"outputs":["/output/a"]}`)
	put(t, d(2), "k2.kfrag", "CONFIG_K2=y\n")
	put(t, d(2), "linux-src/VERSION", "6.1.0-k2\n")
	put(t, d(2), "hook.sh", "#!/bin/sh\necho hook\n")
	put(t, d(2), "k2.json", `{"name":"k2","base":"k1",
  "linux":{"source":"linux-src","config":["k2.kfrag"]},
  "firmware":{"kind":"opensbi","build-args":["--k2"]},
  "post-run-hook":"hook.sh arg","qemu-args":["-m","1G"]}`)
	put(t, d(3), "mods/m2b/m2.c", "m2 from k3\n")
	put(t, d(3), "refs/k4/out.txt", "ok\n")
	put(t, d(3), "k3.json", `{"name":"k3","base":"k2",
  "linux":{"modules":{"m2":"mods/m2b"}},
  "testing":{"refDir":"refs","strip":false},
  "outputs":["/output/b","/output/a"],"rootfs-size":"1GiB","spike-args":["--k3"]}`)
	put(t, d(4), "j2.kfrag", "CONFIG_J2=y\n")
	put(t, d(4), "ov/etc/k4", "k4\n")
	put(t, d(4), "k4.json", `{"name":"k4","base":"k3","overlay":"ov","command":"echo k4",
  "jobs":[{"name":"j1","command":"echo j1"},
          {"name":"j2","linux":{"config":"j2.kfrag"},"firmware":{"build-args":["--j2"]},"command":"echo j2"}]}`)
	return []string{d(4), d(3), d(2), d(1)}, []string{"k4"}
}

func put(t *testing.T, dir, rel, content string) {
	t.Helper()
	p := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o755); err != nil {
		t.Fatal(err)
	}
}

func putExe(t *testing.T, dir, rel, src string) {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("%s: %v", rel, err)
	}
	put(t, dir, rel, string(isa.EncodeExecutable(exe)))
}

// TestTaskKeysPinned builds every case, -no-disk binaries too, installs it,
// and compares the key the dependency tracker recorded for each task, and
// the host paths the installed config resolved, against the pinned set.
func TestTaskKeysPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "taskkeys.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kc := range keyCases {
		root := t.TempDir()
		wlRoot := filepath.Join(root, "wl")
		searchPath, names := kc.write(t, wlRoot)
		work := filepath.Join(root, "work")
		m, err := core.New(work, searchPath...)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, err := m.Build(name, core.BuildOpts{NoDisk: true}); err != nil {
				t.Fatalf("%s: build %s: %v", kc.name, name, err)
			}
			dir, err := m.Install(name, core.InstallOpts{})
			if err != nil {
				t.Fatalf("%s: install %s: %v", kc.name, name, err)
			}
			cfg, err := install.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			rel := func(p string) string {
				if r, err := filepath.Rel(wlRoot, p); err == nil && p != "" {
					return filepath.ToSlash(r)
				}
				return p
			}
			prefix := kc.name + "/" + name + "/"
			got[prefix+"postRunHook"] = cfg.PostRunHook + " @ " + rel(cfg.PostRunHookDir)
			got[prefix+"refDir"] = fmt.Sprintf("%s strip=%v", rel(cfg.RefDir), cfg.Strip)
			for _, job := range cfg.Jobs {
				got[prefix+job.Name+"/outputs"] = strings.Join(job.Outputs, " ")
			}
		}
		state, err := os.ReadFile(filepath.Join(work, "state.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Tasks map[string]string `json:"tasks"`
		}
		if err := json.Unmarshal(state, &doc); err != nil {
			t.Fatal(err)
		}
		for task, key := range doc.Tasks {
			got[kc.name+"/"+task] = key
		}
	}
	names := make([]string, 0, len(want)+len(got))
	for k := range want {
		names = append(names, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	bad := false
	for _, k := range names {
		if got[k] != want[k] {
			t.Errorf("%s = %q, want %q", k, got[k], want[k])
			bad = true
		}
	}
	if bad {
		all, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("got:\n%s", all)
	}
}

// TestEmptyLevelBuildsTheSameArtifacts inserts an empty workload between
// k2 and k3 of the 4-deep chain: every artifact of k4 and its jobs must
// come out byte-identical. (Their task keys differ: each task keys on the
// whole chain's documents through the `spec` value.)
func TestEmptyLevelBuildsTheSameArtifacts(t *testing.T) {
	build := func(insert bool) map[string][]byte {
		root := t.TempDir()
		searchPath, _ := writeChain4(t, filepath.Join(root, "wl"))
		if insert {
			d2, d3 := searchPath[2], searchPath[1]
			put(t, d2, "mid.json", `{"name":"mid","base":"k2"}`)
			k3, err := os.ReadFile(filepath.Join(d3, "k3.json"))
			if err != nil {
				t.Fatal(err)
			}
			put(t, d3, "k3.json", strings.Replace(string(k3), `"base":"k2"`, `"base":"mid"`, 1))
		}
		m, err := core.New(filepath.Join(root, "work"), searchPath...)
		if err != nil {
			t.Fatal(err)
		}
		results, err := m.Build("k4", core.BuildOpts{NoDisk: true})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, r := range results {
			for _, p := range []string{r.Bin, r.Img, r.NoDiskBin} {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				out[filepath.Base(p)] = data
			}
		}
		return out
	}
	want, got := build(false), build(true)
	if len(want) != 9 {
		t.Fatalf("built %d artifacts, want 9", len(want))
	}
	for name, data := range want {
		if string(got[name]) != string(data) {
			t.Errorf("%s differs with an empty level in the chain", name)
		}
	}
}
