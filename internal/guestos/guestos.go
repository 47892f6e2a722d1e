// Package guestos implements the simulated Linux system that boots
// FireMarshal-built artifacts. It consumes exactly the artifacts the build
// pipeline produces — boot binary (firmware + kernel + initramfs) and disk
// image — and emulates the software stack of Fig. 1: firmware banner,
// kernel boot governed by the kernel configuration, early driver loading
// from the initramfs, and a distribution init system (a busybox-style init
// for the Buildroot base, a systemd-style manager with asynchronous
// services for the Fedora base, §IV-A.3).
//
// Boot log lines carry kernel-style timestamps derived from the platform's
// cycle clock. Those differ between functional and cycle-exact simulation,
// which is precisely why FireMarshal's test command cleans outputs before
// comparison (§III-D).
package guestos

import (
	"fmt"
	"io"
	"strings"

	"firemarshal/internal/firmware"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/isa"
	"firemarshal/internal/shell"
	"firemarshal/internal/sim"
)

// RunScriptPath is where the build bakes the workload's run/command script
// into the image (§III-B.5c: "inserting a new step in the Linux
// distribution's init system").
const RunScriptPath = "/etc/marshal/run.sh"

// OSReleasePath identifies the distribution inside an image.
const OSReleasePath = "/etc/os-release"

// DriverSpec describes hardware available on the simulated SoC and how the
// kernel enables it. A driver attaches when its config flag is enabled in
// the booted kernel or when a matching module is loaded from the initramfs.
type DriverSpec struct {
	// Name appears in the boot log.
	Name string
	// ConfigFlag is the kernel option (without CONFIG_) gating the
	// built-in driver.
	ConfigFlag string
	// ModuleName matches modules embedded in the initramfs.
	ModuleName string
	// Attach installs the device model onto the platform.
	Attach func(p sim.Platform) error
}

// BootOpts configures one boot.
type BootOpts struct {
	// Boot is the boot binary artifact.
	Boot *firmware.BootBinary
	// Disk is the root filesystem image; nil for --no-disk workloads
	// (the rootfs is embedded in the initramfs, Fig. 3).
	Disk *fsimg.FS
	// Platform supplies execution and timing.
	Platform sim.Platform
	// Console receives the serial log.
	Console io.Writer
	// Drivers lists hardware present on this SoC configuration.
	Drivers []DriverSpec
	// PkgRepo backs `pkg install` on distributions that support it.
	PkgRepo *Repo
	// OverrideRun, when non-empty, runs this script instead of the baked
	// run script (used by the build's guest-init phase, §III-B.5b).
	OverrideRun string
}

// BootResult reports the completed boot.
type BootResult struct {
	ExitCode int64
	// FinalFS is the root filesystem state after shutdown (output files
	// are extracted from it).
	FinalFS *fsimg.FS
	// Cycles is the total guest time of the boot.
	Cycles uint64
	// RanScript reports whether a run script executed.
	RanScript bool
}

// console wraps the serial sink with kernel-style timestamps.
type console struct {
	w io.Writer
	p sim.Platform
}

func (c *console) stamp() string {
	// Kernel printk timestamps: seconds since boot at 1GHz.
	sec := float64(c.p.Cycles()) / 1e9
	return fmt.Sprintf("[%12.6f] ", sec)
}

func (c *console) linef(format string, args ...any) {
	fmt.Fprintf(c.w, "%s%s\n", c.stamp(), fmt.Sprintf(format, args...))
}

// Boot runs the full software stack to completion.
func Boot(opts BootOpts) (*BootResult, error) {
	if opts.Boot == nil {
		return nil, fmt.Errorf("guestos: nil boot binary")
	}
	if opts.Platform == nil {
		return nil, fmt.Errorf("guestos: nil platform")
	}
	if opts.Console == nil {
		opts.Console = io.Discard
	}
	start := opts.Platform.Cycles()

	// Bare-metal workloads skip the OS entirely.
	if opts.Boot.IsBare() {
		exe, err := isa.DecodeExecutable(opts.Boot.BareExe)
		if err != nil {
			return nil, fmt.Errorf("guestos: bare-metal payload: %w", err)
		}
		res, err := opts.Platform.Exec(exe, opts.Console)
		if err != nil {
			return nil, err
		}
		return &BootResult{
			ExitCode: res.Exit,
			FinalFS:  fsimg.New(),
			Cycles:   opts.Platform.Cycles() - start,
		}, nil
	}

	con := &console{w: opts.Console, p: opts.Platform}

	// Stage 1: firmware.
	for _, line := range opts.Boot.Banner() {
		fmt.Fprintf(opts.Console, "%s\n", line)
	}
	opts.Platform.Charge(opts.Boot.BootCostCycles())

	// Stage 2: kernel.
	kimg := opts.Boot.Kernel
	cfg := kimg.Config
	con.linef("Linux version %s (firemarshal@build) rv64im", kimg.Version)
	con.linef("Kernel command line: %s", cfg.String("CMDLINE", ""))
	con.linef("riscv: ISA extensions im")
	if cfg.Bool("SMP") {
		con.linef("smp: Bringing up %d CPUs", cfg.Int("NR_CPUS", 1))
	}
	opts.Platform.Charge(kimg.BootCostCycles())

	// Built-in drivers gated by kernel config.
	attached := map[string]bool{}
	for _, drv := range opts.Drivers {
		if drv.ConfigFlag != "" && cfg.Bool(drv.ConfigFlag) {
			if err := drv.Attach(opts.Platform); err != nil {
				return nil, fmt.Errorf("guestos: driver %s: %w", drv.Name, err)
			}
			attached[drv.Name] = true
			con.linef("%s: device initialized (built-in)", drv.Name)
		}
	}

	// Stage 3: initramfs — first-stage init loads modules and mounts root.
	initramfs, err := kimg.InitramfsFS()
	if err != nil {
		return nil, fmt.Errorf("guestos: decoding initramfs: %w", err)
	}
	con.linef("Unpacking initramfs...")
	for _, mod := range kimg.Modules {
		con.linef("initramfs: insmod %s.ko", mod.Name)
		opts.Platform.Charge(50_000)
		for _, drv := range opts.Drivers {
			if drv.ModuleName == mod.Name && !attached[drv.Name] {
				if err := drv.Attach(opts.Platform); err != nil {
					return nil, fmt.Errorf("guestos: module %s: %w", mod.Name, err)
				}
				attached[drv.Name] = true
				con.linef("%s: device initialized (module)", drv.Name)
			}
		}
	}

	// Mount the root filesystem.
	var rootfs *fsimg.FS
	if opts.Disk != nil {
		con.linef("VFS: Mounted root (ext4 filesystem) on device 254:0.")
		rootfs = opts.Disk
	} else {
		con.linef("VFS: Mounted root (initramfs).")
		rootfs = initramfs
	}

	// Stage 4: distribution init system.
	distro := detectDistro(rootfs)
	env := &shell.Env{
		FS:       rootfs,
		Platform: opts.Platform,
		Console:  opts.Console,
		Vars: map[string]string{
			"KERNEL_VERSION": kimg.Version,
			"HOSTNAME":       hostname(rootfs),
		},
	}
	if opts.PkgRepo != nil && distro == "fedora" {
		env.PkgInstall = func(name string) error { return opts.PkgRepo.Install(rootfs, name) }
	}

	switch distro {
	case "fedora":
		if err := bootFedora(con, env, opts.Platform); err != nil {
			return nil, err
		}
	default: // buildroot and unknown images boot the minimal init
		if err := bootBuildroot(con, env); err != nil {
			return nil, err
		}
	}

	// Stage 5: the workload's run script (or the build's guest-init).
	result := &BootResult{FinalFS: rootfs}
	script := opts.OverrideRun
	if script == "" {
		if data, rerr := rootfs.ReadFile(RunScriptPath); rerr == nil {
			script = string(data)
		}
	}
	if script != "" {
		result.RanScript = true
		if err := env.Run(script); err != nil {
			return nil, fmt.Errorf("guestos: run script: %w", err)
		}
		result.ExitCode = env.LastExit
		con.linef("reboot: Power down")
	} else {
		// Interactive workloads (no run/command option) reach a login
		// prompt; headless simulation powers down there.
		fmt.Fprintf(opts.Console, "\nbuildroot login: ")
		fmt.Fprintf(opts.Console, "[headless simulation: halting]\n")
	}

	result.Cycles = opts.Platform.Cycles() - start
	return result, nil
}

// hostname reads /etc/hostname (default "localhost").
func hostname(fs *fsimg.FS) string {
	data, err := fs.ReadFile("/etc/hostname")
	if err != nil {
		return "localhost"
	}
	return strings.TrimSpace(string(data))
}

// detectDistro reads /etc/os-release.
func detectDistro(fs *fsimg.FS) string {
	data, err := fs.ReadFile(OSReleasePath)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "ID=") {
			return strings.Trim(strings.TrimPrefix(line, "ID="), `"`)
		}
	}
	return ""
}

// bootBuildroot models the busybox-style init: fast, minimal, deterministic.
func bootBuildroot(con *console, env *shell.Env) error {
	con.linef("init: starting busybox init")
	env.Platform.Charge(400_000)
	if data, err := env.FS.ReadFile("/etc/init.d/rcS"); err == nil {
		if err := env.Run(string(data)); err != nil {
			return fmt.Errorf("guestos: rcS: %w", err)
		}
	}
	con.linef("init: reached runlevel 3")
	return nil
}

// fedoraServices is the deterministic set of systemd services the Fedora
// base starts. The paper: Fedora "took significantly longer to boot and
// introduced hard-to-debug features like asynchronous systemd services".
var fedoraServices = []struct {
	name   string
	cycles uint64
}{
	{"systemd-journald.service", 2_500_000},
	{"systemd-udevd.service", 4_000_000},
	{"systemd-tmpfiles-setup.service", 1_500_000},
	{"dbus.service", 3_000_000},
	{"NetworkManager.service", 6_000_000},
	{"sshd.service", 2_000_000},
	{"systemd-logind.service", 1_800_000},
}

func bootFedora(con *console, env *shell.Env, p sim.Platform) error {
	con.linef("systemd[1]: systemd 245 running in system mode.")
	for _, svc := range fedoraServices {
		p.Charge(svc.cycles)
		con.linef("systemd[1]: Started %s", svc.name)
	}
	// User units from the image (asynchronous services the workload set
	// up, e.g. via guest-init).
	if names, err := env.FS.List("/etc/systemd/system"); err == nil {
		for _, name := range names {
			if !strings.HasSuffix(name, ".service") || name == "marshal.service" {
				continue
			}
			p.Charge(1_000_000)
			con.linef("systemd[1]: Started %s", name)
		}
	}
	con.linef("systemd[1]: Reached target Multi-User System.")
	return nil
}
