package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/firmware"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/install"
)

// testEnv builds a Marshal over temp dirs with some workload files.
type testEnv struct {
	m       *Marshal
	wlDir   string
	workDir string
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	wlDir := t.TempDir()
	workDir := t.TempDir()
	m, err := New(workDir, wlDir)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{m: m, wlDir: wlDir, workDir: workDir}
}

func (e *testEnv) write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(e.wlDir, name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func (e *testEnv) writeExec(t *testing.T, name, content string) string {
	t.Helper()
	p := e.write(t, name, content)
	os.Chmod(p, 0o755)
	return p
}

func readImg(t *testing.T, path string) *fsimg.FS {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fsimg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestBuildSimpleWorkload(t *testing.T) {
	e := newEnv(t)
	e.write(t, "hello.json", `{"name":"hello","base":"br-base","command":"echo hello-from-guest"}`)
	results, err := e.m.Build("hello", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	fs := readImg(t, results[0].Img)
	run, err := fs.ReadFile("/etc/marshal/run.sh")
	if err != nil || !strings.Contains(string(run), "echo hello-from-guest") {
		t.Errorf("run script = %q, %v", run, err)
	}
	// Boot binary decodes and has the default kernel.
	binData, _ := os.ReadFile(results[0].Bin)
	bb, err := firmware.Decode(binData)
	if err != nil {
		t.Fatal(err)
	}
	if bb.IsBare() || bb.Kernel == nil {
		t.Error("boot binary missing kernel")
	}
}

func TestLaunchProducesOutputs(t *testing.T) {
	e := newEnv(t)
	e.write(t, "bench.json", `{
  "name": "bench", "base": "br-base",
  "command": "echo score,42 > /output/res.csv",
  "outputs": ["/output/res.csv"]
}`)
	runs, err := e.m.Launch("bench", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	uart, err := os.ReadFile(runs[0].Uartlog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(uart), "OpenSBI") {
		t.Error("uartlog missing boot banner")
	}
	res, err := os.ReadFile(filepath.Join(runs[0].OutputDir, "res.csv"))
	if err != nil || !strings.Contains(string(res), "score,42") {
		t.Errorf("output file: %q, %v", res, err)
	}
}

func TestInheritanceImageChain(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "overlay", "etc"), 0o755)
	e.write(t, "overlay/etc/bench.conf", "tuning=7\n")
	e.write(t, "parent.json", `{"name":"parent","base":"br-base","overlay":"overlay"}`)
	e.write(t, "child.json", `{"name":"child","base":"parent","command":"cat /etc/bench.conf"}`)
	results, err := e.m.Build("child", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := readImg(t, results[0].Img)
	conf, err := fs.ReadFile("/etc/bench.conf")
	if err != nil || string(conf) != "tuning=7\n" {
		t.Errorf("inherited overlay file: %q, %v", conf, err)
	}
	// Parent image also built.
	if _, err := os.Stat(e.m.ImgPath("parent")); err != nil {
		t.Error("parent image not built")
	}
}

func TestFilesOption(t *testing.T) {
	e := newEnv(t)
	e.writeExec(t, "tool.bin", "#!/fake\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","files":[["tool.bin","/usr/bin/tool"]],"command":"echo hi"}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := readImg(t, results[0].Img)
	f := fs.Lookup("/usr/bin/tool")
	if f == nil || !f.IsExec() {
		t.Error("files entry not applied with exec bit")
	}
}

func TestHostInitRuns(t *testing.T) {
	e := newEnv(t)
	e.writeExec(t, "gen.sh", "#!/bin/sh\necho generated-content > generated.txt\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","host-init":"gen.sh","files":[["generated.txt","/gen.txt"]],"command":"cat /gen.txt"}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := readImg(t, results[0].Img)
	data, err := fs.ReadFile("/gen.txt")
	if err != nil || !strings.Contains(string(data), "generated-content") {
		t.Errorf("host-init output not in image: %q, %v", data, err)
	}
}

func TestGuestInit(t *testing.T) {
	e := newEnv(t)
	e.write(t, "gi.sh", "echo installed > /var/guest-init-ran\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","guest-init":"gi.sh","command":"cat /var/guest-init-ran"}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := readImg(t, results[0].Img)
	data, err := fs.ReadFile("/var/guest-init-ran")
	if err != nil || !strings.Contains(string(data), "installed") {
		t.Errorf("guest-init did not persist: %q, %v", data, err)
	}
}

func TestGuestInitPackageInstall(t *testing.T) {
	e := newEnv(t)
	e.write(t, "gi.sh", "pkg install python3\n")
	e.write(t, "w.json", `{"name":"w","base":"fedora-base","guest-init":"gi.sh","command":"/usr/bin/python3"}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fs := readImg(t, results[0].Img)
	if fs.Lookup("/usr/bin/python3") == nil {
		t.Error("package not installed into image")
	}
}

func TestKernelFragmentAndModule(t *testing.T) {
	e := newEnv(t)
	e.write(t, "pfa.kfrag", "CONFIG_PFA=y\n")
	os.MkdirAll(filepath.Join(e.wlDir, "pfa-driver"), 0o755)
	e.write(t, "pfa-driver/pfa.c", "int init(void){}\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x",
	  "linux":{"config":"pfa.kfrag","modules":{"pfa":"pfa-driver"}}}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	binData, _ := os.ReadFile(results[0].Bin)
	bb, _ := firmware.Decode(binData)
	if !bb.Kernel.Config.Bool("PFA") {
		t.Error("fragment not merged")
	}
	if len(bb.Kernel.Modules) != 1 || bb.Kernel.Modules[0].Name != "pfa" {
		t.Errorf("modules = %+v", bb.Kernel.Modules)
	}
}

func TestBinCopiedFromParentWhenUnchanged(t *testing.T) {
	e := newEnv(t)
	e.write(t, "p.json", `{"name":"p","base":"br-base","linux":{"config":"f.kfrag"},"command":"echo p"}`)
	e.write(t, "f.kfrag", "CONFIG_PFA=y\n")
	e.write(t, "c.json", `{"name":"c","base":"p","command":"echo c"}`)
	results, err := e.m.Build("c", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	parentBin, _ := hostutil.HashFile(e.m.BinPath("p"))
	childBin, _ := hostutil.HashFile(results[0].Bin)
	if parentBin != childBin {
		t.Error("unchanged child should copy the parent's boot binary")
	}
}

func TestNoDisk(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo nodisk-run"}`)
	results, err := e.m.Build("w", BuildOpts{NoDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].NoDiskBin == "" {
		t.Fatal("no-disk binary not built")
	}
	binData, _ := os.ReadFile(results[0].NoDiskBin)
	bb, err := firmware.Decode(binData)
	if err != nil {
		t.Fatal(err)
	}
	// The rootfs must be embedded in the initramfs (Fig. 3).
	initramfs, err := bb.Kernel.InitramfsFS()
	if err != nil {
		t.Fatal(err)
	}
	if initramfs.Lookup("/etc/marshal/run.sh") == nil {
		t.Error("run script not embedded in initramfs")
	}
	// And it boots without a disk.
	runs, err := e.m.Launch("w", LaunchOpts{NoDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	uart, _ := os.ReadFile(runs[0].Uartlog)
	if !strings.Contains(string(uart), "nodisk-run") {
		t.Errorf("no-disk launch output missing: %s", uart)
	}
	if !strings.Contains(string(uart), "Mounted root (initramfs)") {
		t.Error("no-disk boot should mount initramfs root")
	}
}

// TestNoDiskWithBareMetalJob: --no-disk on Listing 1's shape, a Linux client
// beside a bare-metal server. The client boots its initramfs-embedded
// binary; the server, which has no image to embed, boots its own binary.
func TestNoDiskWithBareMetalJob(t *testing.T) {
	e := newEnv(t)
	os.WriteFile(filepath.Join(e.wlDir, "serve"), buildTrivialExe(t), 0o755)
	e.write(t, "lm.json", `{
  "name": "lm", "base": "br-base",
  "jobs": [
    {"name": "client", "command": "echo client-run"},
    {"name": "server", "base": "bare-metal", "bin": "serve"}
  ]}`)
	runs, err := e.m.Launch("lm", LaunchOpts{NoDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		uart, _ := os.ReadFile(run.Uartlog)
		if run.ExitCode != 0 {
			t.Errorf("%s: exit %d\n%s", run.Target, run.ExitCode, uart)
		}
		if run.Target == "lm-client" && !strings.Contains(string(uart), "Mounted root (initramfs)") {
			t.Errorf("the client did not boot its no-disk binary:\n%s", uart)
		}
	}
	dir, err := e.m.Install("lm", InstallOpts{NoDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"lm-client": e.m.NoDiskBinPath("lm-client"), "lm-server": e.m.BinPath("lm-server")}
	for _, job := range cfg.Jobs {
		if abs, _ := filepath.Abs(want[job.Name]); job.Bin != abs || job.Img != "" {
			t.Errorf("%s installed with bin %s, img %q; want bin %s and no image", job.Name, job.Bin, job.Img, abs)
		}
	}
}

// TestNoDiskWorkloadOption: a workload that sets no-disk builds, launches
// and installs as --no-disk does, and a level below may turn it off.
func TestNoDiskWorkloadOption(t *testing.T) {
	e := newEnv(t)
	e.write(t, "p.json", `{"name":"p","base":"br-base","no-disk":true,"command":"echo nodisk-run"}`)
	e.write(t, "c.json", `{"name":"c","base":"p","no-disk":false,"command":"echo disk-run"}`)
	results, err := e.m.Build("p", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].NoDiskBin != e.m.NoDiskBinPath("p") {
		t.Fatalf("build of a no-disk workload made no no-disk binary: %+v", results[0])
	}
	runs, err := e.m.Launch("p", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if uart, _ := os.ReadFile(runs[0].Uartlog); !strings.Contains(string(uart), "Mounted root (initramfs)") {
		t.Errorf("a no-disk workload did not boot from its initramfs:\n%s", uart)
	}
	dir, err := e.m.Install("p", InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if abs, _ := filepath.Abs(e.m.NoDiskBinPath("p")); cfg.Jobs[0].Bin != abs || cfg.Jobs[0].Img != "" {
		t.Errorf("installed bin %s, img %q; want %s and no image", cfg.Jobs[0].Bin, cfg.Jobs[0].Img, abs)
	}

	results, err = e.m.Build("c", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].NoDiskBin != "" {
		t.Errorf("a level that turns no-disk off got a no-disk binary")
	}
}

func TestIncrementalRebuildSkips(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x"}`)
	if _, err := e.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	first := len(e.m.LastBuildStats.Executed)
	if first == 0 {
		t.Fatal("first build should execute tasks")
	}
	if _, err := e.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(e.m.LastBuildStats.Executed) != 0 {
		t.Errorf("no-op rebuild executed %v", e.m.LastBuildStats.Executed)
	}
	// Changing the spec rebuilds.
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo y"}`)
	if _, err := e.m.Build("w", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(e.m.LastBuildStats.Executed) == 0 {
		t.Error("spec change should rebuild")
	}
}

func TestCleanForcesRebuild(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x"}`)
	e.m.Build("w", BuildOpts{})
	if _, err := e.m.Clean("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(e.m.ImgPath("w")); !os.IsNotExist(err) {
		t.Error("clean did not remove image")
	}
	e.m.Build("w", BuildOpts{})
	if len(e.m.LastBuildStats.Executed) == 0 {
		t.Error("build after clean should execute")
	}
}

func TestJobsBuildAndLaunch(t *testing.T) {
	e := newEnv(t)
	e.write(t, "multi.json", `{
  "name": "multi", "base": "br-base",
  "jobs": [
    {"name": "j0", "command": "echo job-zero"},
    {"name": "j1", "command": "echo job-one"}
  ]}`)
	results, err := e.m.Build("multi", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 { // root + 2 jobs
		t.Fatalf("results = %d", len(results))
	}
	runs, err := e.m.Launch("multi", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("launch should run each job: %d", len(runs))
	}
	uart0, _ := os.ReadFile(runs[0].Uartlog)
	uart1, _ := os.ReadFile(runs[1].Uartlog)
	if !strings.Contains(string(uart0), "job-zero") || !strings.Contains(string(uart1), "job-one") {
		t.Error("job outputs wrong")
	}
}

func TestLaunchSpecificJob(t *testing.T) {
	e := newEnv(t)
	e.write(t, "multi.json", `{
  "name": "multi", "base": "br-base",
  "jobs": [{"name": "a", "command": "echo aaa"}, {"name": "b", "command": "echo bbb"}]}`)
	runs, err := e.m.Launch("multi", LaunchOpts{Job: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Target != "multi-b" {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestTestCommand(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs"), 0o755)
	e.write(t, "refs/uartlog", "expected-marker\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo expected-marker","testing":{"refDir":"refs"}}`)
	results, err := e.m.Test("w", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Passed {
		t.Errorf("test should pass: %+v", results[0].Failures)
	}
	// Failing case.
	e.write(t, "refs/uartlog", "absent-marker\n")
	results, err = e.m.Test("w", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Passed {
		t.Error("test should fail for absent marker")
	}
}

func TestTestManual(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs"), 0o755)
	e.write(t, "refs/uartlog", "manual-marker\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x","testing":{"refDir":"refs"}}`)
	outDir := t.TempDir()
	os.WriteFile(filepath.Join(outDir, "uartlog"), []byte("blah\nmanual-marker\n"), 0o644)
	results, err := e.m.Test("w", TestOpts{Manual: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Passed {
		t.Errorf("manual test should pass: %+v", results[0].Failures)
	}
}

func TestTestWithoutRefDir(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x"}`)
	if _, err := e.m.Test("w", TestOpts{}); err == nil {
		t.Error("expected error for missing testing.refDir")
	}
}

func TestPostRunHook(t *testing.T) {
	e := newEnv(t)
	e.writeExec(t, "hook.sh", "#!/bin/sh\necho processed > \"$1/processed.txt\"\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x","post-run-hook":"hook.sh"}`)
	runs, err := e.m.Launch("w", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(runs[0].OutputDir, "processed.txt")); err != nil {
		t.Error("post-run-hook did not run")
	}
}

func TestInstallWritesConfig(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x","outputs":["/output"]}`)
	dir, err := e.m.Install("w", InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload != "w" || len(cfg.Jobs) != 1 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Jobs[0].Bin == "" || cfg.Jobs[0].Img == "" {
		t.Error("job paths missing")
	}
	// The installed artifact is the identical file launch used.
	launchBin, _ := hostutil.HashFile(e.m.BinPath("w"))
	installedBin, _ := hostutil.HashFile(cfg.Jobs[0].Bin)
	if launchBin != installedBin {
		t.Error("install must reference the exact same artifacts")
	}
}

func TestArtifactIdentity(t *testing.T) {
	// §II claim: the exact same software runs deterministically across all
	// phases. Building twice from scratch yields bit-identical artifacts.
	build := func() (string, string) {
		e := newEnv(t)
		e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo identical"}`)
		results, err := e.m.Build("w", BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		bh, _ := hostutil.HashFile(results[0].Bin)
		ih, _ := hostutil.HashFile(results[0].Img)
		return bh, ih
	}
	b1, i1 := build()
	b2, i2 := build()
	if b1 != b2 {
		t.Error("boot binaries differ across identical builds")
	}
	if i1 != i2 {
		t.Error("disk images differ across identical builds")
	}
}

func TestCommandSurface(t *testing.T) {
	// Table I: build, launch, test, install must all exist with these
	// semantics; clean and status support them.
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs"), 0o755)
	e.write(t, "refs/uartlog", "tbl1\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo tbl1","testing":{"refDir":"refs"}}`)
	if _, err := e.m.Build("w", BuildOpts{}); err != nil {
		t.Errorf("build: %v", err)
	}
	if _, err := e.m.Launch("w", LaunchOpts{}); err != nil {
		t.Errorf("launch: %v", err)
	}
	if res, err := e.m.Test("w", TestOpts{}); err != nil || !res[0].Passed {
		t.Errorf("test: %v %+v", err, res)
	}
	if _, err := e.m.Install("w", InstallOpts{}); err != nil {
		t.Errorf("install: %v", err)
	}
	if _, err := e.m.Clean("w"); err != nil {
		t.Errorf("clean: %v", err)
	}
}

func TestHardcodedImgAndBin(t *testing.T) {
	e := newEnv(t)
	// Pre-build artifacts from another workload, then hard-code them.
	e.write(t, "donor.json", `{"name":"donor","base":"br-base","command":"echo donor"}`)
	results, err := e.m.Build("donor", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	imgCopy := filepath.Join(e.wlDir, "fixed.img")
	binCopy := filepath.Join(e.wlDir, "fixed-bin")
	hostutil.CopyFile(results[0].Img, imgCopy)
	hostutil.CopyFile(results[0].Bin, binCopy)

	e.write(t, "fixed.json", `{"name":"fixed","base":"br-base","img":"fixed.img","bin":"fixed-bin"}`)
	runs, err := e.m.Launch("fixed", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	uart, _ := os.ReadFile(runs[0].Uartlog)
	if !strings.Contains(string(uart), "donor") {
		t.Error("hard-coded artifacts not used")
	}
}

func TestRootfsSizeEnforced(t *testing.T) {
	e := newEnv(t)
	big := strings.Repeat("x", 4096)
	e.write(t, "big.txt", big)
	e.write(t, "w.json", `{"name":"w","base":"br-base","rootfs-size":"1KiB","files":[["big.txt","/big.txt"]],"command":"echo x"}`)
	if _, err := e.m.Build("w", BuildOpts{}); err == nil {
		t.Error("expected rootfs-size overflow error")
	}
}

func TestMissingBaseError(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"nonexistent-base","command":"echo x"}`)
	if _, err := e.m.Build("w", BuildOpts{}); err == nil {
		t.Error("expected missing base error")
	}
}

func TestBareMetalJobWithBin(t *testing.T) {
	e := newEnv(t)
	// A bare-metal "server" binary is just an MEX1 file; synthesize one.
	exeData := buildTrivialExe(t)
	os.WriteFile(filepath.Join(e.wlDir, "serve"), exeData, 0o755)
	e.write(t, "w.json", `{
  "name": "w", "base": "br-base",
  "jobs": [
    {"name": "client", "command": "echo client-run"},
    {"name": "server", "base": "bare-metal", "bin": "serve"}
  ]}`)
	results, err := e.m.Build("w", BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var serverRes *BuildResult
	for i := range results {
		if results[i].Target == "w-server" {
			serverRes = &results[i]
		}
	}
	if serverRes == nil || serverRes.Bin == "" {
		t.Fatalf("server target missing: %+v", results)
	}
	if serverRes.Img != "" {
		t.Error("bare-metal job should have no image")
	}
	runs, err := e.m.Launch("w", LaunchOpts{Job: "server"})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].ExitCode != 0 {
		t.Errorf("server exit = %d", runs[0].ExitCode)
	}
}

func TestTestingTimeout(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs"), 0o755)
	e.write(t, "refs/uartlog", "slow-marker\n")
	// A 1-second guest-time budget: boot alone (~2.3M cycles) passes, but
	// sleep 2 charges ~2e9 cycles and must trip the timeout.
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"sleep 2; echo slow-marker","testing":{"refDir":"refs","timeout":1}}`)
	results, err := e.m.Test("w", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Passed {
		t.Error("run exceeding testing.timeout must fail")
	}
	found := false
	for _, f := range results[0].Failures {
		if f.RefFile == "timeout" {
			found = true
		}
	}
	if !found {
		t.Errorf("timeout failure not reported: %+v", results[0].Failures)
	}
}

func TestTestingStripDisabled(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs"), 0o755)
	// The reference includes a timestamp prefix that will never match the
	// run's own timestamps; with strip enabled (default) it matches
	// because both sides are cleaned.
	e.write(t, "refs/uartlog", "[  999.999999] Linux version\n")
	e.write(t, "w.json", `{"name":"w","base":"br-base","command":"echo x","testing":{"refDir":"refs"}}`)
	results, err := e.m.Test("w", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Passed {
		t.Errorf("strip=true (default) should clean timestamps: %+v", results[0].Failures)
	}
	// strip=false compares raw: the bogus timestamp cannot match.
	e.write(t, "w2.json", `{"name":"w2","base":"br-base","command":"echo x","testing":{"refDir":"refs","strip":false}}`)
	results, err = e.m.Test("w2", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Passed {
		t.Error("strip=false must compare raw output")
	}
}

func TestSpikeOptionSelectsVariant(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base","spike":"pfa-spike","command":"echo on-spike"}`)
	runs, err := e.m.Launch("w", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Simulator != "spike" {
		t.Errorf("simulator = %q, want spike (workload has a spike option)", runs[0].Simulator)
	}
}

func TestYAMLWorkloadEndToEnd(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.yaml", "name: w\nbase: br-base\ncommand: echo from-yaml\n")
	runs, err := e.m.Launch("w", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	uart, _ := os.ReadFile(runs[0].Uartlog)
	if !strings.Contains(string(uart), "from-yaml") {
		t.Error("yaml workload did not run")
	}
}

func TestOutputsDirectoryExtraction(t *testing.T) {
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"br-base",
	  "command":"echo a > /output/a.txt; echo b > /output/sub/b.txt",
	  "outputs":["/output"]}`)
	runs, err := e.m.Launch("w", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"output/a.txt", "output/sub/b.txt"} {
		if _, err := os.Stat(filepath.Join(runs[0].OutputDir, rel)); err != nil {
			t.Errorf("missing extracted %s: %v", rel, err)
		}
	}
}

func TestLaunchTrace(t *testing.T) {
	e := newEnv(t)
	// A workload that executes a real guest binary so the trace has
	// instructions in it.
	exeData := buildTrivialExe(t)
	os.WriteFile(filepath.Join(e.wlDir, "prog"), exeData, 0o755)
	e.write(t, "w.json", `{"name":"w","base":"br-base","files":[["prog","/prog"]],"command":"/prog"}`)
	runs, err := e.m.Launch("w", LaunchOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(filepath.Join(runs[0].OutputDir, "trace.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), "ecall") || !strings.Contains(string(trace), "core 0:") {
		t.Errorf("trace content wrong:\n%.300s", trace)
	}
}

func TestMultiJobPerJobRefs(t *testing.T) {
	e := newEnv(t)
	os.MkdirAll(filepath.Join(e.wlDir, "refs", "a"), 0o755)
	e.write(t, "refs/uartlog", "OpenSBI\n")         // applies to all jobs
	e.write(t, "refs/a/uartlog", "job-a-special\n") // only job a
	e.write(t, "w.json", `{
  "name": "w", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo job-a-special"},
    {"name": "b", "command": "echo job-b-other"}
  ],
  "testing": {"refDir": "refs"}}`)
	results, err := e.m.Test("w", TestOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Passed {
			t.Errorf("%s failed: %+v", res.Target, res.Failures)
		}
	}
}

func TestOpenPitonBoardBoots(t *testing.T) {
	// The second board's base uses bbl firmware; the boot banner differs.
	e := newEnv(t)
	e.write(t, "w.json", `{"name":"w","base":"op-base","command":"echo on-openpiton"}`)
	runs, err := e.m.Launch("w", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	uart, _ := os.ReadFile(runs[0].Uartlog)
	if !strings.Contains(string(uart), "bbl loader") {
		t.Errorf("expected bbl banner:\n%.300s", uart)
	}
	if !strings.Contains(string(uart), "on-openpiton") {
		t.Error("workload did not run")
	}
}

func TestSpikeArgsSizeRemoteRegion(t *testing.T) {
	// spike-args carry simulator configuration (Table II); --pfa-pages
	// sizes the golden model's remote region. Touching page 5 needs more
	// than 4 pages.
	exe := buildPFATouchExe(t, 5)
	e := newEnv(t)
	os.WriteFile(filepath.Join(e.wlDir, "touch"), exe, 0o755)
	// Too small: fault at page 5 lands outside the remote region, the load
	// reads unmapped zeros (no device claims it) and the checksum differs —
	// but with a region of only 4 pages the access at page 5 is plain
	// memory, so the program still exits 0. Use 8 pages and assert success,
	// then assert the device actually serviced it via nonzero data.
	e.write(t, "small.json", `{"name":"small","base":"br-base","spike":"pfa-spike",
	  "spike-args":["--pfa-pages=8"],
	  "linux":{"config":"pfa.kfrag"},
	  "files":[["touch","/touch"]],"command":"/touch"}`)
	e.write(t, "pfa.kfrag", "CONFIG_PFA=y\n")
	runs, err := e.m.Launch("small", LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	uart, _ := os.ReadFile(runs[0].Uartlog)
	if !strings.Contains(string(uart), "touched,") || strings.Contains(string(uart), "touched,0") {
		t.Errorf("remote page not serviced by golden model:\n%s", uart)
	}
}
