// Package boards provides the board definitions FireMarshal ships with
// (§III-A.2): the default SoC platform, its device drivers, and the base
// workloads users inherit from — br-base (Buildroot), fedora-base (Fedora),
// and bare-metal. "Users will rarely need to define or modify a board, they
// should be provided by the SoC generation framework."
package boards

import (
	"fmt"
	"strings"

	"firemarshal/internal/accel"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/guestos"
	"firemarshal/internal/netsim"
	"firemarshal/internal/pfa"
	"firemarshal/internal/sim"
	"firemarshal/internal/spec"
)

// DefaultBoard is the board every builtin base targets (the Chipyard-style
// default SoC).
const DefaultBoard = "chipyard-default"

// Builtin base workload names.
const (
	BaseBuildroot = "br-base"
	BaseFedora    = "fedora-base"
	BaseBareMetal = "bare-metal"
)

// Aliases accepted for compatibility with the paper's listings, which call
// the Buildroot base simply "buildroot".
var aliases = map[string]string{
	"buildroot": BaseBuildroot,
	"fedora":    BaseFedora,
}

// OpenPitonBoard is a second SoC platform (§VI: "we hope to extend the
// available boards to include other SoC development frameworks like
// OpenPiton"). Its base workloads differ in board identity and default
// firmware (bbl rather than OpenSBI).
const OpenPitonBoard = "openpiton"

// RegisterBuiltins adds every board's base workloads to a loader.
func RegisterBuiltins(l *spec.Loader) error {
	bases := []*spec.Workload{
		{Name: BaseBuildroot, Distro: "br", Board: DefaultBoard},
		{Name: BaseFedora, Distro: "fedora", Board: DefaultBoard},
		{Name: BaseBareMetal, Distro: "bare", Board: DefaultBoard},
		{Name: "op-base", Distro: "br", Board: OpenPitonBoard,
			Firmware: &spec.FirmwareOpts{Kind: "bbl"}},
		{Name: "op-bare", Distro: "bare", Board: OpenPitonBoard},
	}
	for _, b := range bases {
		if err := l.RegisterBuiltin(b); err != nil {
			return err
		}
	}
	for alias, target := range aliases {
		cp := *bases[0]
		switch target {
		case BaseFedora:
			cp = *bases[1]
		}
		cp.Name = alias
		if err := l.RegisterBuiltin(&cp); err != nil {
			return err
		}
	}
	return nil
}

// BaseImage constructs the root filesystem for a builtin distribution —
// the artifact the lowest base workload's build produces ("FireMarshal uses
// Buildroot internally to construct the lowest base workload", §V).
func BaseImage(distro string) (*fsimg.FS, error) {
	fs := fsimg.New()
	switch distro {
	case "br":
		fs.WriteFile(guestos.OSReleasePath, []byte("ID=buildroot\nVERSION_ID=2020.08\nNAME=Buildroot\n"), 0o644)
		fs.WriteFile("/etc/hostname", []byte("buildroot\n"), 0o644)
		fs.WriteFile("/etc/init.d/rcS", []byte("# buildroot default init\necho Starting network: OK\n"), 0o755)
		fs.MkdirAll("/output", 0o755)
		fs.MkdirAll("/tmp", 0o777)
	case "fedora":
		fs.WriteFile(guestos.OSReleasePath, []byte("ID=fedora\nVERSION_ID=31\nNAME=\"Fedora 31 (RISC-V)\"\n"), 0o644)
		fs.WriteFile("/etc/hostname", []byte("fedora-riscv\n"), 0o644)
		fs.MkdirAll("/etc/systemd/system", 0o755)
		fs.MkdirAll("/output", 0o755)
		fs.MkdirAll("/var/lib/pkg", 0o755)
		fs.MkdirAll("/tmp", 0o777)
	case "bare":
		return nil, fmt.Errorf("boards: bare-metal workloads have no filesystem image")
	default:
		return nil, fmt.Errorf("boards: unknown distribution %q", distro)
	}
	return fs, nil
}

// ProfileOpts parameterize device profiles that need external resources.
type ProfileOpts struct {
	// Fabric is the memory servers' registered regions, which pfa-rdma
	// reads (multi-node RTL simulations; nil elsewhere).
	Fabric *netsim.Fabric
	// ServerNode names the memory-server job for RDMA-backed profiles.
	ServerNode string
	// RemotePages sizes the PFA remote region.
	RemotePages int
}

// PFARemoteBase is the guest address where the remote-memory region starts.
const PFARemoteBase = 0x40000000

// DeviceProfile resolves a device-profile name (the workload's `spike`
// option, or the hardware configuration of an RTL simulation) into the
// drivers available on the simulated SoC. Profiles may be comma-separated.
//
// Known profiles:
//
//	pfa-spike  — PFA with the golden-model backend (emulated remote memory)
//	pfa-rdma   — PFA fetching over the network fabric from ServerNode
//	gemmini    — the matmul accelerator
func DeviceProfile(name string, opts ProfileOpts) ([]guestos.DriverSpec, error) {
	if name == "" {
		return nil, nil
	}
	pages := opts.RemotePages
	if pages == 0 {
		pages = 256
	}
	var drivers []guestos.DriverSpec
	for _, part := range strings.Split(name, ",") {
		part = strings.TrimSpace(part)
		switch part {
		case "pfa-spike", "pfa-golden":
			drivers = append(drivers, pfaDriver(&pfa.GoldenBackend{Latency: 1200}, pages))
		case "pfa-rdma":
			if opts.Fabric == nil || opts.ServerNode == "" {
				return nil, fmt.Errorf("boards: profile pfa-rdma needs a network fabric and server node")
			}
			drivers = append(drivers, pfaDriver(&pfa.NetBackend{Fabric: opts.Fabric, ServerNode: opts.ServerNode}, pages))
		case "gemmini", "gemmini-spike":
			drivers = append(drivers, guestos.DriverSpec{
				Name:       "gemmini",
				ConfigFlag: "ACCEL_GEMM",
				ModuleName: "gemmini",
				Attach: func(p sim.Platform) error {
					p.AddDevice(accel.New(accel.DefaultConfig()))
					return nil
				},
			})
		default:
			return nil, fmt.Errorf("boards: unknown device profile %q", part)
		}
	}
	return drivers, nil
}

func pfaDriver(backend pfa.Backend, pages int) guestos.DriverSpec {
	return guestos.DriverSpec{
		Name:       "pfa",
		ConfigFlag: "PFA",
		ModuleName: "pfa",
		Attach: func(p sim.Platform) error {
			d, err := pfa.NewDevice(pfa.DefaultTiming(), backend, PFARemoteBase, uint64(pages)*pfa.PageSize)
			if err != nil {
				return err
			}
			p.AddDevice(d)
			p.AddHook(d)
			return nil
		},
	}
}

// BaselineDriver returns the software-paging comparison driver (the
// emulated-PFA kernel path of §IV-A.2), gated by the same kernel option so
// identical workloads can be rerun against it.
func BaselineDriver(backend pfa.Backend, pages int) guestos.DriverSpec {
	if pages == 0 {
		pages = 256
	}
	return guestos.DriverSpec{
		Name:       "pfa-sw-baseline",
		ConfigFlag: "PFA",
		ModuleName: "pfa",
		Attach: func(p sim.Platform) error {
			b, err := pfa.NewBaseline(pfa.DefaultBaselineTiming(), backend, PFARemoteBase, uint64(pages)*pfa.PageSize)
			if err != nil {
				return err
			}
			p.AddHook(b)
			return nil
		},
	}
}
