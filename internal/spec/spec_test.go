package spec

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseListing1JSON(t *testing.T) {
	// The paper's Listing 1 (upper): pfa-base.
	src := `{
  "name": "pfa-base",
  "base": "buildroot",
  "host-init": "cross-compile.sh",
  "linux": {
    "source": "pfa-linux",
    "config": "pfa-linux.kfrag"
  },
  "overlay": "pfa-test-root/",
  "spike": "pfa-spike"
}`
	w, err := Parse([]byte(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "pfa-base" || w.Base != "buildroot" {
		t.Errorf("header wrong: %+v", w)
	}
	if w.HostInit != "cross-compile.sh" || w.Overlay != "pfa-test-root/" || w.Spike != "pfa-spike" {
		t.Errorf("options wrong: %+v", w)
	}
	if w.Linux == nil || w.Linux.Source != "pfa-linux" || len(w.Linux.Config) != 1 {
		t.Errorf("linux opts wrong: %+v", w.Linux)
	}
}

func TestParseListing1Jobs(t *testing.T) {
	// The paper's Listing 1 (lower): latency-microbenchmark.
	src := `{
  "name": "latency-microbenchmark",
  "base": "pfa-base",
  "post-run-hook": "extract_csv.py",
  "jobs": [
    { "name": "client", "linux": { "config": "pfa.kfrag" } },
    { "name": "server", "base": "bare-metal", "bin": "serve" }
  ]
}`
	w, err := Parse([]byte(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}
	if w.Jobs[0].Name != "client" || w.Jobs[0].Linux.Config[0] != "pfa.kfrag" {
		t.Errorf("client job wrong: %+v", w.Jobs[0])
	}
	if w.Jobs[1].Base != "bare-metal" || w.Jobs[1].Bin != "serve" {
		t.Errorf("server job wrong: %+v", w.Jobs[1])
	}
}

func TestParseYAMLEquivalence(t *testing.T) {
	j, err := Parse([]byte(`{"name":"w","base":"b","outputs":["/output"],"rootfs-size":"3GiB"}`), false)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Parse([]byte("name: w\nbase: b\noutputs:\n  - /output\nrootfs-size: 3GiB\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if j.Name != y.Name || j.Base != y.Base || j.RootfsSize != y.RootfsSize ||
		len(j.Outputs) != len(y.Outputs) || j.Outputs[0] != y.Outputs[0] {
		t.Errorf("JSON and YAML parse differently: %+v vs %+v", j, y)
	}
}

func TestUnknownOptionRejected(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"w","bse":"typo"}`), false); err == nil {
		t.Error("expected error for unknown option")
	}
	if _, err := Parse([]byte(`{"name":"w","linux":{"sorce":"x"}}`), false); err == nil {
		t.Error("expected error for unknown linux option")
	}
}

func TestTypeErrors(t *testing.T) {
	bad := []string{
		`{"name": 42}`,
		`{"outputs": "notalist"}`,
		`{"files": [["onlyone"]]}`,
		`{"files": "x"}`,
		`{"linux": "x"}`,
		`{"jobs": [{"command": "no name"}]}`,
		`{"jobs": [{"name": "j", "jobs": [{"name":"nested"}]}]}`,
		`{"no-disk": "yes"}`,
		`{"run": "a.sh", "command": "echo hi"}`,
		`{"testing": {"timeout": -1}}`,
		// A timeout is whole seconds, and its cycle budget fits in a uint64.
		`{"testing": {"timeout": 2.7}}`,
		`{"testing": {"timeout": 1e30}}`,
		`{"testing": {"timeout": 18446744074}}`,
		`[1,2,3]`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src), false); err == nil {
			t.Errorf("Parse(%s): expected error", src)
		}
	}
}

func TestTable2Options(t *testing.T) {
	// Every option named in Table II must parse.
	src := `{
  "name": "full",
  "base": "br-base",
  "overlay": "overlay/",
  "files": [["host.txt", "/guest.txt"]],
  "host-init": "build.sh",
  "guest-init": "install.sh",
  "run": "bench.sh",
  "outputs": ["/output"],
  "post-run-hook": "parse.py",
  "linux": {"source": "my-linux", "config": ["a.kfrag", "b.kfrag"], "modules": {"pfa": "pfa-driver/"}},
  "firmware": {"kind": "opensbi"},
  "spike": "custom-spike",
  "spike-args": ["--extension=pfa"],
  "qemu-args": ["-m", "4G"],
  "jobs": [{"name": "node0"}],
  "rootfs-size": "3GiB",
  "bin": "",
  "img": "",
  "testing": {"refDir": "refs/", "timeout": 60, "strip": true}
}`
	w, err := Parse([]byte(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Linux.Config) != 2 || w.Linux.Modules["pfa"] != "pfa-driver/" {
		t.Errorf("linux = %+v", w.Linux)
	}
	if w.Firmware.Kind != "opensbi" {
		t.Errorf("firmware = %+v", w.Firmware)
	}
	if w.Testing.TimeoutSec != 60 || !w.Testing.Strip || w.Testing.RefDir != "refs/" {
		t.Errorf("testing = %+v", w.Testing)
	}
	if len(w.Files) != 1 || w.Files[0].Dst != "/guest.txt" {
		t.Errorf("files = %+v", w.Files)
	}
}

func newTestLoader(t *testing.T, dir string) *Loader {
	t.Helper()
	l := NewLoader(dir)
	l.RegisterBuiltin(&Workload{Name: "br-base", Distro: "br", Board: "default"})
	l.RegisterBuiltin(&Workload{Name: "fedora-base", Distro: "fedora", Board: "default"})
	l.RegisterBuiltin(&Workload{Name: "bare-metal", Distro: "bare", Board: "default"})
	return l
}

func TestLoadWithInheritance(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "parent.json", `{"name":"parent","base":"br-base","rootfs-size":"1GiB","linux":{"config":"p.kfrag"}}`)
	writeFile(t, dir, "child.json", `{"name":"child","base":"parent","linux":{"config":"c.kfrag"},"command":"echo hi"}`)
	l := newTestLoader(t, dir)
	w, err := l.Load("child")
	if err != nil {
		t.Fatal(err)
	}
	chain := w.Effective.Levels
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0].Name != "br-base" || chain[1].Name != "parent" || chain[2].Name != "child" {
		t.Errorf("chain order: %s %s %s", chain[0].Name, chain[1].Name, chain[2].Name)
	}
	if w.Effective.Distro != "br" {
		t.Errorf("distro = %q", w.Effective.Distro)
	}
	if w.Effective.RootfsSize != "1GiB" {
		t.Errorf("rootfs-size = %q", w.Effective.RootfsSize)
	}
	frags := w.Effective.ConfigFragments
	if len(frags) != 2 || !strings.HasSuffix(frags[0], "p.kfrag") || !strings.HasSuffix(frags[1], "c.kfrag") {
		t.Errorf("fragments = %v (parents must come first)", frags)
	}
}

func TestLoadByExplicitPath(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "w.json", `{"name":"w","base":"br-base"}`)
	l := newTestLoader(t, t.TempDir())
	w, err := l.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "w" || w.Dir != dir {
		t.Errorf("w = %+v", w)
	}
}

func TestSearchPathOrder(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	writeFile(t, dir1, "dup.json", `{"name":"dup","base":"br-base","command":"first"}`)
	writeFile(t, dir2, "dup.json", `{"name":"dup","base":"br-base","command":"second"}`)
	l := NewLoader(dir1, dir2)
	l.RegisterBuiltin(&Workload{Name: "br-base", Distro: "br"})
	w, err := l.Load("dup")
	if err != nil {
		t.Fatal(err)
	}
	if w.Command != "first" {
		t.Errorf("search order broken: got %q", w.Command)
	}
}

func TestYAMLWorkloadFile(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "w.yaml", "name: w\nbase: br-base\ncommand: echo yaml\n")
	l := newTestLoader(t, dir)
	w, err := l.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	if w.Command != "echo yaml" {
		t.Errorf("command = %q", w.Command)
	}
}

func TestMissingWorkload(t *testing.T) {
	l := newTestLoader(t, t.TempDir())
	if _, err := l.Load("ghost"); err == nil {
		t.Error("expected error for missing workload")
	}
	if _, err := l.Load("ghost.json"); err == nil {
		t.Error("expected error for missing workload file")
	}
}

func TestInheritanceCycle(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.json", `{"name":"a","base":"b"}`)
	writeFile(t, dir, "b.json", `{"name":"b","base":"a"}`)
	l := newTestLoader(t, dir)
	if _, err := l.Load("a"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestJobsImplicitBase(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "multi.json", `{
  "name": "multi", "base": "br-base", "rootfs-size": "2GiB",
  "jobs": [
    {"name": "client", "command": "run client"},
    {"name": "server", "base": "bare-metal", "bin": "serve"}
  ]}`)
	l := newTestLoader(t, dir)
	w, err := l.Load("multi")
	if err != nil {
		t.Fatal(err)
	}
	client, server := w.Jobs[0], w.Jobs[1]
	// "Jobs are implicitly based on the top level workload description".
	if levels := client.Effective.Levels; levels[len(levels)-2] != w {
		t.Error("client should inherit from top-level workload")
	}
	if client.Effective.RootfsSize != "2GiB" {
		t.Errorf("client rootfs = %q", client.Effective.RootfsSize)
	}
	if client.Effective.Distro != "br" {
		t.Errorf("client distro = %q", client.Effective.Distro)
	}
	// Explicit base overrides the implicit one.
	if server.Effective.Distro != "bare" {
		t.Errorf("server distro = %q", server.Effective.Distro)
	}
}

func TestDuplicateJobNames(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "w.json", `{"name":"w","base":"br-base","jobs":[{"name":"x"},{"name":"x"}]}`)
	l := newTestLoader(t, dir)
	if _, err := l.Load("w"); err == nil {
		t.Error("expected duplicate job error")
	}
}

func TestBuiltinDuplicate(t *testing.T) {
	l := NewLoader()
	if err := l.RegisterBuiltin(&Workload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := l.RegisterBuiltin(&Workload{Name: "x"}); err == nil {
		t.Error("expected duplicate builtin error")
	}
	if err := l.RegisterBuiltin(&Workload{}); err == nil {
		t.Error("expected unnamed builtin error")
	}
}

func TestHashChangesWithAncestry(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.json", `{"name":"p","base":"br-base","command":"v1"}`)
	writeFile(t, dir, "c.json", `{"name":"c","base":"p"}`)
	l := newTestLoader(t, dir)
	c1, _ := l.Load("c")
	h1 := c1.Hash()

	// Changing only the parent must change the child's hash.
	writeFile(t, dir, "p.json", `{"name":"p","base":"br-base","command":"v2"}`)
	c2, _ := l.Load("c")
	if c2.Hash() == h1 {
		t.Error("hash insensitive to parent change")
	}
}

func TestModulesMergeAcrossChain(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.json", `{"name":"p","base":"br-base","linux":{"modules":{"icenic":"drv/icenic","pfa":"drv/pfa-v1"}}}`)
	writeFile(t, dir, "c.json", `{"name":"c","base":"p","linux":{"modules":{"pfa":"drv/pfa-v2"}}}`)
	l := newTestLoader(t, dir)
	w, err := l.Load("c")
	if err != nil {
		t.Fatal(err)
	}
	mods := w.Effective.Modules
	if len(mods) != 2 {
		t.Fatalf("modules = %v", mods)
	}
	if !strings.HasSuffix(mods["pfa"], "drv/pfa-v2") {
		t.Errorf("child module should override: %v", mods)
	}
}

func TestParseRootfsSize(t *testing.T) {
	cases := map[string]int64{
		"3GiB":   3 << 30,
		"512MiB": 512 << 20,
		"1k":     1 << 10,
		"4096":   4096,
		"2GB":    2 << 30,
		// The largest size whose byte count fits in an int64.
		"8589934591GiB": (1<<33 - 1) << 30,
	}
	for in, want := range cases {
		got, err := ParseRootfsSize(in)
		if err != nil || got != want {
			t.Errorf("ParseRootfsSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// A size is a whole number, and its byte count must fit in an int64.
	for _, bad := range []string{"abc", "-5MiB", "0", "1.5GiB", "12xyz", "9999999999GiB", "8589934592GiB", "99999999999999999999"} {
		if _, err := ParseRootfsSize(bad); err == nil {
			t.Errorf("ParseRootfsSize(%q): expected error", bad)
		}
	}
	if v, err := ParseRootfsSize(""); v != 0 || err != nil {
		t.Error("empty size should be 0, nil")
	}
}

func TestEffectiveArgsConcatenate(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.json", `{"name":"p","base":"br-base","qemu-args":["-m","4G"]}`)
	writeFile(t, dir, "c.json", `{"name":"c","base":"p","qemu-args":["-smp","2"]}`)
	l := newTestLoader(t, dir)
	w, _ := l.Load("c")
	args := w.Effective.QemuArgs
	want := []string{"-m", "4G", "-smp", "2"}
	if len(args) != 4 {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Errorf("args[%d] = %q", i, args[i])
		}
	}
}

func TestNameDefaultsFromFilename(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "unnamed.json", `{"base":"br-base"}`)
	l := newTestLoader(t, dir)
	w, err := l.Load("unnamed")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "unnamed" {
		t.Errorf("name = %q", w.Name)
	}
}

func TestBlockScalarCommand(t *testing.T) {
	// Real FireMarshal workloads use YAML block scalars for multi-line
	// boot commands.
	dir := t.TempDir()
	writeFile(t, dir, "w.yaml", `name: w
base: br-base
command: |-
  echo line one
  echo line two
`)
	l := newTestLoader(t, dir)
	w, err := l.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.Command, "line one") || !strings.Contains(w.Command, "line two") {
		t.Errorf("command = %q", w.Command)
	}
}

// Property: for random inheritance chains, effective options resolve to the
// nearest definition and the chain has the right shape.
func TestQuickInheritanceResolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "spec-quick-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l := newTestLoaderQuick(dir)

		depth := rng.Intn(6) + 1
		// Each level may or may not set rootfs-size; record the deepest
		// setter.
		wantSize := ""
		parent := "br-base"
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("w%d", i)
			size := ""
			if rng.Intn(2) == 0 {
				size = fmt.Sprintf("%dMiB", rng.Intn(100)+1)
				wantSize = size
			}
			doc := fmt.Sprintf(`{"name":%q,"base":%q`, name, parent)
			if size != "" {
				doc += fmt.Sprintf(`,"rootfs-size":%q`, size)
			}
			doc += "}"
			if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(doc), 0o644); err != nil {
				return false
			}
			parent = name
		}
		w, err := l.Load(parent)
		if err != nil {
			return false
		}
		if len(w.Effective.Levels) != depth+1 {
			return false
		}
		return w.Effective.RootfsSize == wantSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func newTestLoaderQuick(dir string) *Loader {
	l := NewLoader(dir)
	l.RegisterBuiltin(&Workload{Name: "br-base", Distro: "br", Board: "default"})
	return l
}
