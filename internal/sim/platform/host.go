// Package platform is the kernel the three simulator platforms share.
// funcsim, approxsim and rtlsim each embed a Host, which holds everything a
// sim.Platform is apart from its timing: the node clock, the attached
// devices, hooks and syscall extensions, and the whole protocol of running
// one guest executable — replay of execs a crashed attempt completed,
// machine construction and argv, restore of the in-flight exec, metrics,
// and the exec record. A platform supplies only its names, an optional
// tweak of each fresh machine (trace writer, fault injection) and the loop
// that drives the machine to halt.
//
// The package sits beside the platforms rather than in sim because the
// protocol needs both sim.Machine and checkpoint.Runtime, and checkpoint
// imports sim.
package platform

import (
	"errors"
	"fmt"
	"io"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
)

// Options are what a platform passes down from its own Config.
type Options struct {
	// Name is what sim.Platform.Name reports ("qemu", "firesim", ...).
	Name string
	// Kind names the simulator ("funcsim", "approxsim", "rtlsim"): it
	// prefixes every Run error and is the infix of the sim_<Kind>_* metrics.
	Kind string
	// MaxInstrs bounds each exec to catch runaway guests (default 500M).
	MaxInstrs uint64
	// Stop, Ckpt and Obs are the platform Config fields of the same names
	// (see funcsim.Config): the kill switch, the checkpoint runtime, and
	// the metrics registry. All three may be nil.
	Stop <-chan struct{}
	Ckpt *checkpoint.Runtime
	Obs  *obs.Registry
}

// Host is one simulation node minus its timing model. The zero value is not
// usable; call New.
type Host struct {
	opts      Options
	cycles    uint64
	devices   []sim.Device
	hooks     []sim.MemHook
	fallbacks []func(*sim.Machine, uint64) (bool, error)
}

// New returns a host with the serial console attached.
func New(o Options) Host {
	if o.MaxInstrs == 0 {
		o.MaxInstrs = 500_000_000
	}
	return Host{opts: o, devices: []sim.Device{&sim.UART{}}}
}

// Name implements sim.Platform.
func (h *Host) Name() string { return h.opts.Name }

// Cycles implements sim.Platform.
func (h *Host) Cycles() uint64 { return h.cycles }

// Charge implements sim.Platform: modeled OS overhead advances the clock
// on every platform, so logs stay ordered even where time is only
// instruction-counted.
func (h *Host) Charge(n uint64) { h.cycles += n }

// AddDevice implements sim.Platform.
func (h *Host) AddDevice(d sim.Device) { h.devices = append(h.devices, d) }

// AddHook implements sim.Platform.
func (h *Host) AddHook(hook sim.MemHook) { h.hooks = append(h.hooks, hook) }

// AddSyscall implements sim.Platform.
func (h *Host) AddSyscall(fb sim.SyscallFallback) { h.fallbacks = append(h.fallbacks, fb) }

// Run is the body of every platform's Exec: run the executable to
// completion on a fresh machine that tweak (which may be nil) has adjusted
// and loop — one of sim's Run functions — drives to halt, advancing the
// node clock by what the run cost. With checkpointing enabled, execs a
// crashed attempt already completed replay from their records — charging
// the recorded cycles and re-emitting the recorded console — and the
// crashed attempt's in-flight exec restores from its latest snapshot
// before loop sees the machine.
func (h *Host) Run(exe *isa.Executable, console io.Writer, args []string,
	tweak func(*sim.Machine), loop func(*sim.Machine) (uint64, error)) (res *sim.ExecResult, err error) {
	defer func() {
		if err != nil {
			res, err = nil, fmt.Errorf("%s: %w", h.opts.Kind, err)
		}
	}()
	m := sim.NewMachine()
	m.Console = console
	m.Devices = h.devices
	m.Hooks = h.hooks
	m.SyscallFn = sim.BareSyscalls(h.fallbacks...)
	m.MaxInstrs = h.opts.MaxInstrs
	m.Stop = h.opts.Stop
	m.Now = h.cycles
	if tweak != nil {
		tweak(m)
	}

	ck := h.opts.Ckpt
	var sig string
	if ck != nil {
		if len(m.Hooks) > 0 || m.Trace != nil {
			return nil, errors.New("checkpointing is incompatible with memory hooks and tracing")
		}
		sig = checkpoint.ExecSig(exe.Entry, args)
		rec, out, ok, err := ck.ReplayNext(sig)
		if err != nil {
			return nil, err
		}
		if ok {
			if console != nil {
				if _, err := console.Write(out); err != nil {
					return nil, err
				}
			}
			h.cycles += rec.Cycles
			return &sim.ExecResult{Exit: rec.Exit, Instrs: rec.Instrs, Cycles: rec.Cycles}, nil
		}
	}

	m.LoadExecutable(exe, sim.DefaultStackTop)
	sim.SetupArgv(m, args)
	// The cycle baseline predates BeginExec: a restore advances Instret and
	// Now to the snapshot boundary, and the result must span the whole exec.
	// (The instruction baseline is the fresh machine's zero.)
	start := h.cycles
	if ck != nil {
		w, _, err := ck.BeginExec(sig, m, console)
		if err != nil {
			return nil, err
		}
		m.Console = w
	}
	// Metric shards attach after any restore, so a resumed exec reports
	// only instructions it actually simulates; the run loops flush them at
	// chunk and batch boundaries.
	m.AttachObs(h.opts.Obs.Counter("sim_"+h.opts.Kind+"_instrs_total").Shard(),
		h.opts.Obs.Counter("sim_"+h.opts.Kind+"_cycles_total").Shard())
	wallStart := time.Now()

	_, err = loop(m)
	h.cycles = m.Now
	if err != nil {
		return nil, err
	}
	cycles := h.cycles - start
	// A 0-duration exec produces +Inf here; Gauge.Set clamps it to 0.
	h.opts.Obs.Gauge("sim_" + h.opts.Kind + "_mips").Set(float64(m.Instret) / time.Since(wallStart).Seconds() / 1e6)
	if ck != nil {
		if err := ck.FinishExec(m.ExitCode, m.Instret, cycles); err != nil {
			return nil, err
		}
	}
	return &sim.ExecResult{Exit: m.ExitCode, Instrs: m.Instret, Cycles: cycles}, nil
}
