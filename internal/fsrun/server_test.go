package fsrun

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/core"
	"firemarshal/internal/install"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

// buildPFAInstalled installs Listing 1's two-node workload: pfa-client,
// whose PFA fetches over the fabric (pfa-rdma), and pfa-server, the
// bare-metal memory server that registers the remote region.
func buildPFAInstalled(t *testing.T) *install.Config {
	t.Helper()
	const pages = 4
	wlDir := t.TempDir()
	files := map[string][]byte{
		"pfa.kfrag": []byte("CONFIG_PFA=y\n"),
		"pfa.json": []byte(`{
  "name": "pfa", "base": "br-base", "linux": {"config": "pfa.kfrag"},
  "overlay": "root", "spike": "pfa-spike",
  "jobs": [
    {"name": "client", "command": "/latency > /output/latency.csv", "outputs": ["/output/latency.csv"]},
    {"name": "server", "base": "bare-metal", "bin": "serve"}
  ]}`),
	}
	for name, src := range map[string]string{"root/latency": workgen.PFAClientSource(pages), "serve": workgen.PFAServerSource(pages)} {
		exe, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files[name] = isa.EncodeExecutable(exe)
	}
	for name, data := range files {
		p := filepath.Join(wlDir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.New(t.TempDir(), wlDir)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Install("pfa", core.InstallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := install.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestServerPhaseIsRecordedAndResumable: the memory server is a recorded
// job. Its regions land as an output, its phase keeps a manifest of its
// own beside the nodes', and -resume carries it: the client then reads the
// landed regions and reruns to the same cycles and bytes. A landed file
// that is missing or undecodable fails the run, naming the server.
func TestServerPhaseIsRecordedAndResumable(t *testing.T) {
	cfg := buildPFAInstalled(t)
	outDir := t.TempDir()
	manifest := filepath.Join(outDir, "manifest.jsonl")
	opts := Options{RTL: rtlsim.DefaultConfig(), OutputDir: outDir, ManifestPath: manifest}
	first, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, j := range first.Jobs {
		want[j.Name] = j.Cycles
	}
	clientCSV := filepath.Join(outDir, "pfa-client", "latency.csv")
	wantCSV, err := os.ReadFile(clientCSV)
	if err != nil {
		t.Fatal(err)
	}

	regions := filepath.Join(outDir, "pfa-server", regionsFile)
	if data, err := os.ReadFile(regions); err != nil || len(data) != 16+4*4096 {
		t.Fatalf("server regions: %d bytes, %v; want one 4-page region", len(data), err)
	}
	for path, want := range map[string]string{manifest: "pfa-client", serverManifestPath(manifest): "pfa-server"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"`+want+`"`) {
			t.Errorf("%s holds %q, want %s's record alone", filepath.Base(path), data, want)
		}
	}

	// The nodes' record is lost; the server's is not.
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	opts.Resume, opts.Log = true, &log
	resumed, err := Run(cfg, opts)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "pfa-server already ok") {
		t.Errorf("resume did not carry the server:\n%s", log.String())
	}
	for _, j := range resumed.Jobs {
		if j.Cycles != want[j.Name] {
			t.Errorf("%s: %d cycles after resume, want %d", j.Name, j.Cycles, want[j.Name])
		}
	}
	if gotCSV, err := os.ReadFile(clientCSV); err != nil || !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("client latency.csv after resume = %q, %v; want %q", gotCSV, err, wantCSV)
	}

	for name, damage := range map[string]func() error{
		"undecodable": func() error { return os.WriteFile(regions, []byte("x"), 0o644) },
		"missing":     func() error { return os.Remove(regions) },
	} {
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "pfa-server") {
			t.Errorf("%s regions: err = %v, want a failure naming pfa-server", name, err)
		}
	}
}
