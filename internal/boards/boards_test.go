package boards

import (
	"strings"
	"testing"

	"firemarshal/internal/guestos"
	"firemarshal/internal/netsim"
	"firemarshal/internal/spec"
)

func TestRegisterBuiltins(t *testing.T) {
	l := spec.NewLoader()
	if err := RegisterBuiltins(l); err != nil {
		t.Fatal(err)
	}
	names := l.Builtins()
	for _, want := range []string{"br-base", "fedora-base", "bare-metal", "buildroot", "fedora"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q missing (have %v)", want, names)
		}
	}
	// The paper's Listing 1 uses "buildroot" as a base name.
	w, err := l.Load("buildroot")
	if err != nil {
		t.Fatal(err)
	}
	if w.Effective.Distro != "br" {
		t.Errorf("buildroot alias distro = %q", w.Effective.Distro)
	}
}

func TestRegisterBuiltinsTwiceFails(t *testing.T) {
	l := spec.NewLoader()
	RegisterBuiltins(l)
	if err := RegisterBuiltins(l); err == nil {
		t.Error("double registration should fail")
	}
}

func TestBaseImages(t *testing.T) {
	br, err := BaseImage("br")
	if err != nil {
		t.Fatal(err)
	}
	data, err := br.ReadFile(guestos.OSReleasePath)
	if err != nil || !strings.Contains(string(data), "ID=buildroot") {
		t.Errorf("br os-release: %q %v", data, err)
	}
	if br.Lookup("/etc/init.d/rcS") == nil {
		t.Error("br base missing init script")
	}

	fed, err := BaseImage("fedora")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = fed.ReadFile(guestos.OSReleasePath)
	if !strings.Contains(string(data), "ID=fedora") {
		t.Errorf("fedora os-release: %q", data)
	}
	if fed.Lookup("/etc/systemd/system") == nil {
		t.Error("fedora base missing systemd dir")
	}

	if _, err := BaseImage("bare"); err == nil {
		t.Error("bare should have no image")
	}
	if _, err := BaseImage("arch"); err == nil {
		t.Error("unknown distro should fail")
	}
}

func TestBaseImagesDeterministic(t *testing.T) {
	a, _ := BaseImage("br")
	b, _ := BaseImage("br")
	if a.Hash() != b.Hash() {
		t.Error("base image generation not deterministic")
	}
}

func TestDeviceProfiles(t *testing.T) {
	// Empty profile.
	drivers, err := DeviceProfile("", ProfileOpts{})
	if err != nil || drivers != nil {
		t.Errorf("empty profile: %v %v", drivers, err)
	}
	// Golden PFA.
	drivers, err = DeviceProfile("pfa-spike", ProfileOpts{})
	if err != nil || len(drivers) != 1 || drivers[0].Name != "pfa" {
		t.Fatalf("pfa-spike: %v %v", drivers, err)
	}
	if drivers[0].ConfigFlag != "PFA" || drivers[0].ModuleName != "pfa" {
		t.Errorf("pfa driver gating wrong: %+v", drivers[0])
	}
	// Combined profile.
	drivers, err = DeviceProfile("pfa-golden, gemmini", ProfileOpts{})
	if err != nil || len(drivers) != 2 {
		t.Fatalf("combined: %v %v", drivers, err)
	}
	// Unknown profile.
	if _, err := DeviceProfile("tpu", ProfileOpts{}); err == nil {
		t.Error("unknown profile should fail")
	}
}

func TestPFARDMARequiresFabric(t *testing.T) {
	if _, err := DeviceProfile("pfa-rdma", ProfileOpts{}); err == nil {
		t.Error("pfa-rdma without fabric should fail")
	}
	fabric, err := netsim.New(netsim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	drivers, err := DeviceProfile("pfa-rdma", ProfileOpts{Fabric: fabric, ServerNode: "srv"})
	if err != nil || len(drivers) != 1 {
		t.Fatalf("pfa-rdma with fabric: %v %v", drivers, err)
	}
}

func TestOpenPitonBoard(t *testing.T) {
	l := spec.NewLoader()
	if err := RegisterBuiltins(l); err != nil {
		t.Fatal(err)
	}
	w, err := l.Load("op-base")
	if err != nil {
		t.Fatal(err)
	}
	if w.Effective.Board != OpenPitonBoard {
		t.Errorf("board = %q", w.Effective.Board)
	}
	if w.Effective.FirmwareKind != "bbl" {
		t.Errorf("op-base firmware = %q, want bbl", w.Effective.FirmwareKind)
	}
}
