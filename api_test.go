package firemarshal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

// TestPublicAPIQuickstart drives the whole lifecycle through the public
// façade only — what a downstream user of the library sees.
func TestPublicAPIQuickstart(t *testing.T) {
	wlDir := t.TempDir()
	os.WriteFile(filepath.Join(wlDir, "q.json"), []byte(
		`{"name":"q","base":"br-base","command":"echo api-quickstart > /output/r.txt","outputs":["/output/r.txt"],"testing":{"refDir":"refs"}}`), 0o644)
	os.MkdirAll(filepath.Join(wlDir, "refs"), 0o755)
	os.WriteFile(filepath.Join(wlDir, "refs", "r.txt"), []byte("api-quickstart\n"), 0o644)

	m, err := New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Build("q", BuildOpts{}); err != nil {
		t.Fatalf("build: %v", err)
	}
	runs, err := m.Launch("q", LaunchOpts{})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if runs[0].ExitCode != 0 {
		t.Fatalf("exit = %d", runs[0].ExitCode)
	}
	tests, err := m.Test("q", TestOpts{})
	if err != nil || !tests[0].Passed {
		t.Fatalf("test: %v %+v", err, tests)
	}
	dir, err := m.Install("q", InstallOpts{})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	cfg, err := LoadInstalled(dir)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "out")
	res, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), OutputDir: outDir})
	if err != nil {
		t.Fatalf("run installed: %v", err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].ExitCode != 0 {
		t.Fatalf("sim jobs: %+v", res.Jobs)
	}
	if err := VerifyInstalled(cfg, outDir); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestPFAEndToEndMultiNode is the full §IV-A integration: the Listing 1
// workload hierarchy, developed against the Spike golden model and then
// run as a two-node cycle-exact simulation with RDMA over the fabric. The
// per-step hardware latencies must agree between the two simulation levels.
func TestPFAEndToEndMultiNode(t *testing.T) {
	wlDir := t.TempDir()
	const pages = 4
	writeExe := func(name, src string) {
		exe, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := filepath.Join(wlDir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, isa.EncodeExecutable(exe), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeExe("pfa-root/pfa/latency", workgen.PFAClientSource(pages))
	writeExe("serve", workgen.PFAServerSource(pages))
	os.WriteFile(filepath.Join(wlDir, "pfa.kfrag"), []byte("CONFIG_PFA=y\n"), 0o644)
	os.WriteFile(filepath.Join(wlDir, "pfa-base.json"), []byte(`{
  "name": "pfa-base", "base": "buildroot",
  "linux": {"config": "pfa.kfrag"},
  "overlay": "pfa-root", "spike": "pfa-spike"
}`), 0o644)
	os.WriteFile(filepath.Join(wlDir, "latency-microbenchmark.json"), []byte(`{
  "name": "latency-microbenchmark", "base": "pfa-base",
  "jobs": [
    {"name": "client", "command": "/pfa/latency > /output/latency.csv", "outputs": ["/output/latency.csv"]},
    {"name": "server", "base": "bare-metal", "bin": "serve"}
  ]
}`), 0o644)

	m, err := New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}

	// Development: client against the Spike golden model.
	runs, err := m.Launch("latency-microbenchmark", LaunchOpts{Job: "client"})
	if err != nil {
		t.Fatal(err)
	}
	funcCSV, err := os.ReadFile(filepath.Join(runs[0].OutputDir, "latency.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Evaluation: both nodes cycle-exactly with RDMA over the fabric.
	dir, err := m.Install("latency-microbenchmark", InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadInstalled(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The install layer must have wired the client to the RDMA profile and
	// found the bare server node.
	var client, server *JobResult
	foundRDMA := false
	for _, job := range cfg.Jobs {
		if job.Devices == "pfa-rdma" && strings.HasSuffix(job.ServerNode, "server") {
			foundRDMA = true
		}
	}
	if !foundRDMA {
		t.Fatalf("install did not wire RDMA: %+v", cfg.Jobs)
	}
	outDir := filepath.Join(t.TempDir(), "sim")
	res, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), OutputDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		switch {
		case strings.HasSuffix(res.Jobs[i].Name, "client"):
			client = &res.Jobs[i]
		case strings.HasSuffix(res.Jobs[i].Name, "server"):
			server = &res.Jobs[i]
		}
	}
	if client == nil || server == nil {
		t.Fatalf("jobs: %+v", res.Jobs)
	}
	if server.ExitCode != 0 || client.ExitCode != 0 {
		t.Fatalf("exit codes: client=%d server=%d", client.ExitCode, server.ExitCode)
	}
	rtlCSV, err := os.ReadFile(filepath.Join(client.OutputDir, "latency.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Hardware step latencies (detect, walk, install) agree across levels;
	// only the network fetch differs (golden emulation vs real fabric).
	fRow := strings.Split(strings.Split(string(funcCSV), "\n")[1], ",")
	rRow := strings.Split(strings.Split(string(rtlCSV), "\n")[1], ",")
	for _, idx := range []int{1, 2, 4} {
		if fRow[idx] != rRow[idx] {
			t.Errorf("step %d differs: golden=%s rtl=%s", idx, fRow[idx], rRow[idx])
		}
	}
	if fRow[3] == "0" || rRow[3] == "0" {
		t.Error("fetch latency missing")
	}

	// Fig. 5 pinned: the cycle-exact per-step series and both nodes' cycle
	// counts, as literals. Any change to how the fabric is built, carried
	// or read must leave them byte-identical.
	const wantCSV = "page,detect,walk,rdma,install,total\n" +
		"0,3,24,912,8,979\n1,3,24,912,8,979\n2,3,24,912,8,979\n3,3,24,912,8,979\n"
	if string(rtlCSV) != wantCSV {
		t.Errorf("client latency.csv = %q, want %q", rtlCSV, wantCSV)
	}
	if client.Cycles != 2313880 || server.Cycles != 89856 {
		t.Errorf("cycles: client=%d server=%d, want client=2313880 server=89856", client.Cycles, server.Cycles)
	}

	// Determinism: a second cycle-exact run gives identical cycles.
	res2, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), OutputDir: filepath.Join(t.TempDir(), "sim2")})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		if res.Jobs[i].Cycles != res2.Jobs[i].Cycles {
			t.Errorf("node %s cycles differ across runs: %d vs %d",
				res.Jobs[i].Name, res.Jobs[i].Cycles, res2.Jobs[i].Cycles)
		}
	}
}

// TestVerifyErrorFormatting covers the public error type.
func TestVerifyErrorFormatting(t *testing.T) {
	wlDir := t.TempDir()
	os.WriteFile(filepath.Join(wlDir, "q.json"), []byte(
		`{"name":"q","base":"br-base","command":"echo actual","testing":{"refDir":"refs"}}`), 0o644)
	os.MkdirAll(filepath.Join(wlDir, "refs"), 0o755)
	os.WriteFile(filepath.Join(wlDir, "refs", "uartlog"), []byte("never-printed\n"), 0o644)
	m, _ := New(t.TempDir(), wlDir)
	dir, err := m.Install("q", InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := LoadInstalled(dir)
	outDir := filepath.Join(t.TempDir(), "o")
	if _, err := RunInstalled(cfg, SimOptions{RTL: DefaultRTLConfig(), OutputDir: outDir}); err != nil {
		t.Fatal(err)
	}
	err = VerifyInstalled(cfg, outDir)
	if err == nil {
		t.Fatal("verify should fail")
	}
	if !strings.Contains(err.Error(), "uartlog") {
		t.Errorf("error should name the failing reference: %v", err)
	}
}
