package workgen

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/boards"
	"firemarshal/internal/netsim"
	"firemarshal/internal/pfa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
)

// runSource assembles and runs a generated program on a fresh functional
// platform with the given drivers/devices attached.
func runSource(t *testing.T, src string, setup func(p sim.Platform)) string {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v\nsource:\n%s", err, numbered(src))
	}
	p := funcsim.New(funcsim.Config{})
	if setup != nil {
		setup(p)
	}
	var out bytes.Buffer
	res, err := p.Exec(exe, &out)
	if err != nil {
		t.Fatalf("exec: %v (out: %s)", err, out.String())
	}
	if res.Exit != 0 {
		t.Fatalf("exit = %d (out: %s)", res.Exit, out.String())
	}
	return out.String()
}

func numbered(src string) string {
	var b strings.Builder
	for i, line := range strings.Split(src, "\n") {
		fmt.Fprintf(&b, "%4d %s\n", i+1, line)
	}
	return b.String()
}

func TestIntSpeedSuiteShape(t *testing.T) {
	suite := IntSpeedSuite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10 (Listing 2)", len(suite))
	}
	names := map[string]bool{}
	for _, b := range suite {
		if !strings.HasSuffix(b.Name, "_s") {
			t.Errorf("name %q not intspeed-style", b.Name)
		}
		if names[b.Name] {
			t.Errorf("duplicate name %q", b.Name)
		}
		names[b.Name] = true
		if b.RefSeconds <= 0 {
			t.Errorf("%s: missing reference time", b.Name)
		}
	}
	if !names["600.perlbench_s"] || !names["657.xz_s"] {
		t.Error("suite must span 600.perlbench_s..657.xz_s")
	}
}

func TestIntSpeedBenchmarksRun(t *testing.T) {
	for _, b := range IntSpeedSuite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			out := runSource(t, b.Source("test"), nil)
			fields := strings.Split(strings.TrimSpace(out), ",")
			if len(fields) != 3 || fields[0] != b.Name {
				t.Fatalf("output = %q, want \"<name>,<cycles>,<checksum>\"", out)
			}
		})
	}
}

func TestIntSpeedDeterministicChecksum(t *testing.T) {
	b := IntSpeedSuite()[0]
	out1 := runSource(t, b.Source("test"), nil)
	out2 := runSource(t, b.Source("test"), nil)
	// cycles (field 2) equal under funcsim; checksum (field 3) always.
	if out1 != out2 {
		t.Errorf("benchmark not deterministic: %q vs %q", out1, out2)
	}
}

func TestRefLargerThanTest(t *testing.T) {
	b := IntSpeedSuite()[2] // mcf
	exeT, _ := asm.Assemble(b.Source("test"), asm.Options{})
	exeR, _ := asm.Assemble(b.Source("ref"), asm.Options{})
	p := funcsim.New(funcsim.Config{})
	rt, err := p.Exec(exeT, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := p.Exec(exeR, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Instrs < 10*rt.Instrs {
		t.Errorf("ref dataset (%d instrs) should dwarf test (%d)", rr.Instrs, rt.Instrs)
	}
}

func TestSuiteDifferentiatesPredictors(t *testing.T) {
	// The branch-heavy benchmarks must show a bigger TAGE-vs-bimodal gap
	// than the compute benchmark — the property Fig. 6 relies on.
	run := func(name, pred string) uint64 {
		var bench Benchmark
		for _, b := range IntSpeedSuite() {
			if b.Name == name {
				bench = b
			}
		}
		exe, err := asm.Assemble(bench.Source("test"), asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := rtlsim.DefaultConfig()
		cfg.Predictor = pred
		p, err := rtlsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	gap := func(name string) float64 {
		bim := run(name, "bimodal")
		tage := run(name, "tage")
		return float64(bim) / float64(tage)
	}
	branchy := gap("631.deepsjeng_s")
	compute := gap("625.x264_s")
	if branchy <= compute {
		t.Errorf("deepsjeng predictor gap (%.3f) should exceed x264's (%.3f)", branchy, compute)
	}
}

func TestPFAClientAgainstGoldenModel(t *testing.T) {
	drivers, err := boards.DeviceProfile("pfa-spike", boards.ProfileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out := runSource(t, PFAClientSource(4), func(p sim.Platform) {
		for _, d := range drivers {
			if err := d.Attach(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "page,detect,walk,rdma,install,total" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("want 4 data rows, got %d: %q", len(lines)-1, out)
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			t.Fatalf("row %q", line)
		}
		if fields[0] != fmt.Sprint(i) {
			t.Errorf("row %d starts with %q", i, fields[0])
		}
		if fields[1] != "3" || fields[2] != "24" || fields[3] != "1200" || fields[4] != "8" {
			t.Errorf("per-step latencies wrong: %q", line)
		}
	}
}

func TestPFAServerRegistersWithNIC(t *testing.T) {
	nic := &netsim.NIC{}
	out := runSource(t, PFAServerSource(8), func(p sim.Platform) {
		p.AddDevice(nic)
	})
	if !strings.Contains(out, "serve: ready") {
		t.Errorf("server output = %q", out)
	}
	// The server registers its whole remote region, once.
	enc := nic.Encode()
	if want := 16 + 8*4096; len(enc) != want {
		t.Fatalf("registered regions encode to %d bytes, want one 8-page region (%d)", len(enc), want)
	}
	fabric, err := netsim.New(netsim.DefaultConfig(), map[string][]byte{"server": enc})
	if err != nil {
		t.Fatal(err)
	}
	// The registered pattern must match the golden model byte-for-byte, so
	// Spike-vs-FireSim outputs agree (§IV-A methodology).
	data, _, err := fabric.RDMARead("server", 0x40000000+4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	pageAddr := uint64(0x40000000 + 4096)
	for i, b := range data {
		want := byte(pageAddr>>12) ^ byte(i)
		if b != want {
			t.Fatalf("server byte %d = %#x, golden wants %#x", i, b, want)
		}
	}
}

func TestMatmulProgram(t *testing.T) {
	drivers, err := boards.DeviceProfile("gemmini", boards.ProfileOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out := runSource(t, MatmulSource(16, 8), func(p sim.Platform) {
		for _, d := range drivers {
			d.Attach(p)
		}
	})
	if !strings.HasPrefix(out, "tile,8,cycles,") {
		t.Fatalf("output = %q", out)
	}
	// C[0][0] = sum_k A[0][k]*B[k][0] with A=i%7, B=i%5 patterns:
	// A[0][k] = k%7, B[k][0] = (k*16)%5.
	want := 0
	for k := 0; k < 16; k++ {
		want += (k % 7) * ((k * 16) % 5)
	}
	if !strings.Contains(out, fmt.Sprintf(",c0,%d\n", want)) {
		t.Errorf("checksum wrong: %q (want c0=%d)", out, want)
	}
}

func TestMatmulTilingVisibleToGuest(t *testing.T) {
	drivers, _ := boards.DeviceProfile("gemmini", boards.ProfileOpts{})
	cycles := func(tile int) string {
		out := runSource(t, MatmulSource(64, tile), func(p sim.Platform) {
			for _, d := range drivers {
				d.Attach(p)
			}
		})
		fields := strings.Split(strings.TrimSpace(out), ",")
		return fields[3]
	}
	if cycles(1) == cycles(16) {
		t.Error("tile size should change accelerator cycles")
	}
}

func TestHelloAndQuickstart(t *testing.T) {
	out := runSource(t, HelloSource("hi there\n"), nil)
	if out != "hi there\n" {
		t.Errorf("hello = %q", out)
	}
	out = runSource(t, QuickstartSource(), nil)
	if !strings.HasPrefix(out, "quickstart,") {
		t.Errorf("quickstart = %q", out)
	}
}

func TestBaselineClientRuns(t *testing.T) {
	// Attach the software-paging baseline driver manually.
	drv := boards.BaselineDriver(&pfa.GoldenBackend{Latency: 1200}, 16)
	out := runSource(t, PFABaselineClientSource(3), func(p sim.Platform) {
		if err := drv.Attach(p); err != nil {
			t.Fatal(err)
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "page,total" || len(lines) != 4 {
		t.Fatalf("baseline output = %q", out)
	}
}
