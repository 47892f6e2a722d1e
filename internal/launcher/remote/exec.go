package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/firmware"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/guestos"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
)

// Exec is one job attempt, as the execution kernel sees it: artifact
// bytes, a simulator selection, and the guest paths to collect. Where the
// bytes come from (a file, a CAS digest) and where the result goes (a run
// directory, the shared cache) is the caller's business; everything between
// — decode, platform, checkpoint wiring, boot, output extraction — happens
// here and only here, for `marshal launch`, `firesim` and the worker alike.
type Exec struct {
	// Name is the job's manifest name (checkpoint key, RTL node name).
	Name string
	// Bin is the encoded boot binary.
	Bin []byte
	// Img, when set, yields the encoded disk image. It is called only when
	// the boot binary mounts one — a bare-metal boot never reads its image.
	Img func() ([]byte, error)
	// Sim selects the simulator: "qemu" or "spike" (functional) or "rtl"
	// (cycle-exact, on the RTL hardware configuration).
	Sim string
	RTL rtlsim.Config
	// Outputs lists guest paths to extract from the final filesystem.
	Outputs []string
	// Ckpt, when set, arms checkpointing: Store, Dir, Every and OnSnapshot
	// are the caller's; the kernel fills in the job, registry and span.
	// With Resume the job restores from its pointer file, if one exists.
	Ckpt   *checkpoint.Config
	Resume bool
	// Obs is the registry sim and checkpoint metrics report into.
	Obs *obs.Registry
	// Log receives progress messages (nil = none).
	Log io.Writer

	// Host-local extras, which only an in-process run can have. Drivers
	// are the SoC's device drivers (host-side callbacks), Devices are
	// attached to the platform before boot (the network fabric's NIC), and
	// Trace receives the functional per-instruction trace. None of their
	// state is part of a machine snapshot, so a job carrying any of them
	// runs without checkpointing and cannot move to a worker.
	Drivers []guestos.DriverSpec
	Devices []sim.Device
	Trace   io.Writer
	// Tee additionally streams the console (interactive use).
	Tee io.Writer
}

// hostLocal is the one gating rule for checkpointing and for fleet
// dispatch: a job is pure machine state only when nothing host-local is
// attached to it.
func (x *Exec) hostLocal() bool {
	return len(x.Drivers) > 0 || len(x.Devices) > 0 || x.Trace != nil
}

// Result is the outcome of one successful job execution.
type Result struct {
	ExitCode int64
	Cycles   uint64
	// Stats is the cycle-exact timing breakdown (rtl jobs; nil otherwise).
	Stats *rtlsim.Stats
	// HostTime is the attempt's host wall-clock time.
	HostTime time.Duration
}

func (r *Result) metrics() launcher.Metrics {
	m := launcher.Metrics{ExitCode: r.ExitCode, Cycles: r.Cycles}
	if r.Stats != nil {
		m.Instrs = r.Stats.Instrs
	}
	return m
}

// Files is what a finished job leaves behind: the console transcript and
// the extracted outputs, keyed by run-directory-relative path.
type Files struct {
	Console []byte
	Outputs map[string][]byte
}

// Execute runs one job attempt to completion. The context's Done channel
// is the machine's cooperative kill switch, and its span (the launcher
// threads each attempt's through) parents the checkpoint/restore spans.
// Failures no retry can fix — an undecodable artifact, an invalid hardware
// configuration, an unknown simulator — are launcher.Permanent.
func Execute(ctx context.Context, x Exec) (*Result, *Files, error) {
	start := time.Now()
	boot, err := firmware.Decode(x.Bin)
	if err != nil {
		return nil, nil, launcher.Permanent(fmt.Errorf("job %s: boot binary: %w", x.Name, err))
	}
	var disk *fsimg.FS
	if x.Img != nil && !boot.IsBare() {
		data, err := x.Img()
		if err != nil {
			return nil, nil, fmt.Errorf("job %s: disk image: %w", x.Name, err)
		}
		if disk, err = fsimg.Decode(data); err != nil {
			return nil, nil, launcher.Permanent(fmt.Errorf("job %s: disk image: %w", x.Name, err))
		}
	}

	var ckpt *checkpoint.Runtime
	if x.Ckpt != nil && !x.hostLocal() {
		cfg := *x.Ckpt
		cfg.Job, cfg.Obs, cfg.Span = x.Name, x.Obs, obs.SpanFromContext(ctx)
		if ckpt, err = checkpoint.Open(cfg, x.Resume); err != nil {
			return nil, nil, err
		}
		if ckpt.Resuming() {
			logf(x.Log, "resume: %s restoring from checkpoint", x.Name)
		} else if why := ckpt.Discarded(); why != nil {
			logf(x.Log, "resume: %s starts from instruction 0, its checkpoint is unusable: %v", x.Name, why)
		}
	}

	var platform sim.Platform
	var rtl *rtlsim.Platform
	switch x.Sim {
	case "qemu", "spike":
		platform = funcsim.New(funcsim.Config{
			Variant: x.Sim,
			Trace:   x.Trace,
			Stop:    ctx.Done(),
			Ckpt:    ckpt,
			Obs:     x.Obs,
		})
	case "rtl":
		cfg := x.RTL
		cfg.Stop, cfg.Ckpt, cfg.Obs = ctx.Done(), ckpt, x.Obs
		if rtl, err = rtlsim.New(cfg); err != nil {
			return nil, nil, launcher.Permanent(err)
		}
		rtl.NodeName = x.Name
		platform = rtl
	default:
		return nil, nil, launcher.Permanent(fmt.Errorf("job %s: unknown simulator %q", x.Name, x.Sim))
	}
	for _, d := range x.Devices {
		platform.AddDevice(d)
	}

	var console bytes.Buffer
	var sink io.Writer = &console
	if x.Tee != nil {
		sink = io.MultiWriter(&console, x.Tee)
	}
	logf(x.Log, "simulating %s on %s", x.Name, x.Sim)
	booted, err := guestos.Boot(guestos.BootOpts{
		Boot:     boot,
		Disk:     disk,
		Platform: platform,
		Console:  sink,
		Drivers:  x.Drivers,
		PkgRepo:  guestos.DefaultRepo(),
	})
	if err != nil {
		return nil, nil, err
	}

	res := &Result{ExitCode: booted.ExitCode, Cycles: booted.Cycles}
	if rtl != nil {
		stats := rtl.Stats()
		res.Stats = &stats
	}
	outputs, err := extractOutputs(booted.FinalFS, x.Outputs)
	if err != nil {
		return nil, nil, err
	}
	res.HostTime = time.Since(start)
	return res, &Files{Console: console.Bytes(), Outputs: outputs}, nil
}

// extractOutputs collects the declared guest paths from the final
// filesystem (§III-C: "FireMarshal copies any output files and the serial
// port log to an output directory"), keyed as they land in a run
// directory: a file by its base name, a directory's files under the
// directory's base name ("/" contributes no prefix, so keys stay
// relative). A missing output is not an error: the workload may have
// decided not to produce it, and the gap surfaces during test.
func extractOutputs(fs *fsimg.FS, outputs []string) (map[string][]byte, error) {
	files := map[string][]byte{}
	if fs == nil {
		return files, nil
	}
	for _, out := range outputs {
		node := fs.Lookup(out)
		if node == nil {
			continue
		}
		if !node.IsDir() {
			files[filepath.Base(out)] = node.Data
			continue
		}
		base := filepath.Base(out)
		if out == "/" {
			base = ""
		}
		err := fs.Walk(func(p string, f *fsimg.File) error {
			if f.IsDir() || !withinGuestDir(p, out) {
				return nil
			}
			rel, err := filepath.Rel(out, p)
			if err != nil {
				return err
			}
			files[filepath.Join(base, rel)] = f.Data
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func withinGuestDir(p, dir string) bool {
	if dir == "/" {
		return true
	}
	return p == dir || (len(p) > len(dir) && p[:len(dir)] == dir && p[len(dir)] == '/')
}

// WriteDir writes the files into dir as a run directory: the console as
// uartlog, each output at its relative path. Output keys may have crossed
// the wire from a worker, so one that would land outside dir fails the
// whole write before anything is written.
func (f *Files) WriteDir(dir string) error {
	for rel := range f.Outputs {
		if !filepath.IsLocal(rel) {
			return fmt.Errorf("output path %q escapes the run directory", rel)
		}
	}
	if err := hostutil.WriteFileAtomic(filepath.Join(dir, "uartlog"), f.Console, 0o644); err != nil {
		return err
	}
	for rel, data := range f.Outputs {
		if err := hostutil.WriteFileAtomic(filepath.Join(dir, rel), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
