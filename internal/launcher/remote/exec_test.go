package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/core"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
)

// artifacts is one boot shape the kernel table runs: the encoded boot
// binary and, for disk boots, the encoded image.
type artifacts struct {
	bin, img []byte
	bare     bool
}

// buildShapes builds one workload three ways — disk, no-disk, bare-metal —
// through the real build path. The guest program spins long enough for a
// 2000-instruction checkpoint interval to fire; the run script then leaves
// a file, a nested directory and nothing at /output/none.
func buildShapes(t *testing.T) map[string]artifacts {
	t.Helper()
	exe, err := asm.Assemble(`
_start:
    li s0, 20000
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
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(wlDir, name), data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write("spin", isa.EncodeExecutable(exe))
	write("w.json", []byte(`{"name":"w","base":"br-base","files":[["spin","/spin"]],
	  "command":"/spin; echo a > /output/a.txt; echo b > /output/sub/b.txt"}`))
	write("b.json", []byte(`{"name":"b","base":"bare-metal","bin":"spin"}`))
	m, err := core.New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []struct {
		name string
		opts core.BuildOpts
	}{{"w", core.BuildOpts{}}, {"w", core.BuildOpts{NoDisk: true}}, {"b", core.BuildOpts{}}} {
		if _, err := m.Build(build.name, build.opts); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return map[string]artifacts{
		"disk":    {bin: read(m.BinPath("w")), img: read(m.ImgPath("w"))},
		"no-disk": {bin: read(m.NoDiskBinPath("w"))},
		"bare":    {bin: read(m.BinPath("b")), bare: true},
	}
}

// TestExecuteTable runs the one execution kernel over simulator × boot
// shape × checkpointing × declared outputs. Every cell must succeed,
// extract exactly the declared files under run-directory-relative keys,
// and report the same exit code, cycles and console with checkpointing
// armed as without — checkpoints must be invisible in results.
func TestExecuteTable(t *testing.T) {
	shapes := buildShapes(t)
	outputs := []struct {
		name     string
		declared []string
		want     []string // for OS boots; a bare boot has no filesystem
	}{
		{"file", []string{"/output/a.txt"}, []string{"a.txt"}},
		{"directory", []string{"/output"}, []string{"output/a.txt", "output/sub/b.txt"}},
		{"missing", []string{"/output/none"}, nil},
		{"root", []string{"/"}, []string{"output/a.txt", "output/sub/b.txt"}},
	}
	for _, sim := range []string{"qemu", "spike", "rtl"} {
		for shape, art := range shapes {
			for _, out := range outputs {
				var base *remote.Result
				var baseFiles *remote.Files
				for _, ckpt := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/ckpt=%v", sim, shape, out.name, ckpt)
					reg := obs.NewRegistry()
					x := remote.Exec{Name: "job", Bin: art.bin, Sim: sim, RTL: rtlsim.DefaultConfig(), Outputs: out.declared, Obs: reg}
					if art.img != nil {
						x.Img = func() ([]byte, error) { return art.img, nil }
					}
					if ckpt {
						store, err := cas.Open(t.TempDir())
						if err != nil {
							t.Fatal(err)
						}
						x.Ckpt = &checkpoint.Config{Store: store, Dir: t.TempDir(), Every: 2000}
					}
					res, files, err := remote.Execute(context.Background(), x)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.ExitCode != 0 || res.Cycles == 0 || (res.Stats != nil) != (sim == "rtl") {
						t.Errorf("%s: result %+v", name, res)
					}
					if wrote := reg.Counter("checkpoint_writes_total").Value(); (wrote > 0) != ckpt {
						t.Errorf("%s: %d checkpoints written", name, wrote)
					}
					var keys []string
					for rel := range files.Outputs {
						if !filepath.IsLocal(rel) {
							t.Errorf("%s: output key %q is not run-directory-relative", name, rel)
						}
						// "/" collects the whole image; only the workload's own
						// files are pinned here.
						if out.name != "root" || filepath.Dir(rel) == "output" || filepath.Dir(rel) == "output/sub" {
							keys = append(keys, rel)
						}
					}
					sort.Strings(keys)
					want := out.want
					if art.bare {
						want = nil
					}
					if !reflect.DeepEqual(keys, want) {
						t.Errorf("%s: extracted %v, want %v", name, keys, want)
					}
					if !ckpt {
						base, baseFiles = res, files
					} else if res.ExitCode != base.ExitCode || res.Cycles != base.Cycles || !bytes.Equal(files.Console, baseFiles.Console) {
						t.Errorf("%s: exit/cycles/console differ from the unprotected run (%d vs %d cycles)", name, res.Cycles, base.Cycles)
					}
				}
			}
		}
	}
}

// TestExecuteGatesCheckpointOnHostLocalState pins the kernel's one gating
// rule: a job with anything host-local attached — here a trace writer —
// runs without checkpointing even when a checkpoint config is armed.
func TestExecuteGatesCheckpointOnHostLocalState(t *testing.T) {
	art := buildShapes(t)["disk"]
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var trace bytes.Buffer
	_, _, err = remote.Execute(context.Background(), remote.Exec{
		Name: "job", Bin: art.bin, Img: func() ([]byte, error) { return art.img, nil }, Sim: "qemu",
		Ckpt: &checkpoint.Config{Store: store, Dir: t.TempDir(), Every: 2000}, Obs: reg, Trace: &trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Error("trace writer received nothing")
	}
	if wrote := reg.Counter("checkpoint_writes_total").Value(); wrote != 0 {
		t.Errorf("%d checkpoints written with a trace attached", wrote)
	}
}

// TestExecutePermanentFailures: failures no retry can fix are marked
// Permanent by the kernel itself, so every front end stops after one
// attempt.
func TestExecutePermanentFailures(t *testing.T) {
	art := buildShapes(t)["disk"]
	img := func() ([]byte, error) { return art.img, nil }
	for name, x := range map[string]remote.Exec{
		"corrupt boot binary": {Bin: []byte("not a boot binary"), Img: img, Sim: "qemu"},
		"corrupt disk image":  {Bin: art.bin, Img: func() ([]byte, error) { return []byte("not an image"), nil }, Sim: "qemu"},
		"unknown simulator":   {Bin: art.bin, Img: img, Sim: "verilator"},
		"bad hardware config": {Bin: art.bin, Img: img, Sim: "rtl", RTL: rtlsim.Config{Predictor: "crystal-ball"}},
	} {
		x.Name, x.Obs = "job", obs.NewRegistry()
		if _, _, err := remote.Execute(context.Background(), x); err == nil || !launcher.IsPermanent(err) {
			t.Errorf("%s: err = %v, want a permanent error", name, err)
		}
	}
}

// TestOlderSpecsFailLoudly: a job spec in the flat wire form of an older
// coordinator never runs on a wrong configuration. Its rtl caches decode to
// zero geometry, which the kernel rejects as a permanent hardware
// configuration error; its verify fault string does not decode, so the
// lease is refused outright.
func TestOlderSpecsFailLoudly(t *testing.T) {
	var spec remote.JobSpec
	if err := json.Unmarshal([]byte(`{"name":"job","sim":"rtl","bin":"sha256:aa","rtl":{"predictor":"tage",
	  "icache_size":16384,"icache_line":64,"icache_ways":4,"dcache_size":16384,"dcache_line":64,"dcache_ways":4,
	  "branch_miss":8,"jalr":2,"icache_miss":20,"dcache_miss":30,"mmio_latency":10,"mul_latency":4,
	  "div_latency":20,"syscall_penalty":30,"freq_mhz":1000,"max_instrs":500000000}}`), &spec); err != nil {
		t.Fatal(err)
	}
	art := buildShapes(t)["disk"]
	_, _, err := remote.Execute(context.Background(), remote.Exec{
		Name: spec.Name, Bin: art.bin, Img: func() ([]byte, error) { return art.img, nil },
		Sim: spec.Sim, RTL: *spec.RTL, Obs: obs.NewRegistry(),
	})
	if err == nil || !launcher.IsPermanent(err) || !strings.Contains(err.Error(), "icache") {
		t.Errorf("flat rtl spec: err = %v, want a permanent icache configuration error", err)
	}

	w := remote.NewWorker(remote.WorkerConfig{Runner: remote.RunnerFunc(func(context.Context, remote.JobSpec, func(remote.Event)) (*remote.RunOutput, error) {
		t.Error("a lease with a string fault ran")
		return &remote.RunOutput{}, nil
	}), Slots: 1, Obs: obs.NewRegistry()})
	defer w.Close()
	rec := httptest.NewRecorder()
	w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(
		`[{"name":"verify-shard-0","sim":"verify","verify":{"seeds":[7],"fault":"fast:500:x27:0x1"}}]`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("verify lease with a string fault answered %d, want 400", rec.Code)
	}
}
