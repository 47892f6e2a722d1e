// Package funcsim implements the functional simulation platform — the role
// QEMU and Spike play in FireMarshal's workflow (§II-A.3): fast,
// ISA-faithful execution with no timing model, used for software
// development, guest-init execution during builds, and reference-output
// generation. Time advances one cycle per instruction, which keeps rdcycle
// monotonic for guest code without claiming timing fidelity.
//
// The platform supports the "spike" variant: the same engine with
// golden-model devices attached (§IV-A used a modified Spike carrying the
// PFA golden model).
package funcsim

import (
	"io"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/platform"
)

// Config controls the functional platform.
type Config struct {
	// Variant names the simulator ("qemu" or "spike"); informational.
	Variant string
	// MaxInstrs bounds each Exec to catch runaway guests (default 500M).
	MaxInstrs uint64
	// Trace receives a per-instruction execution trace (spike -l role).
	Trace io.Writer
	// Stop is the cooperative kill switch threaded into each machine (see
	// sim.Machine.Stop): the parallel launcher passes a job context's
	// Done channel so timeouts and Ctrl-C abort the simulation.
	Stop <-chan struct{}
	// Ckpt, when set, records completed Execs and snapshots the machine at
	// deterministic instruction boundaries so an interrupted run resumes
	// bit-identically (see internal/checkpoint). Incompatible with memory
	// hooks and tracing, whose state snapshots do not capture.
	Ckpt *checkpoint.Runtime
	// Obs is the registry sim_funcsim_* metrics report into; nil resolves
	// to the process-wide obs.Default.
	Obs *obs.Registry
}

// Platform is a functional simulation node: the shared kernel plus the
// trace writer. Time is instruction-counted; modeled OS overhead still
// advances the clock (Charge) so logs stay ordered.
type Platform struct {
	platform.Host
	trace io.Writer
	obs   *obs.Registry
}

var _ sim.Platform = (*Platform)(nil)

// New creates a functional platform.
func New(cfg Config) *Platform {
	if cfg.Variant == "" {
		cfg.Variant = "qemu"
	}
	return &Platform{
		Host: platform.New(platform.Options{
			Name: cfg.Variant, Kind: "funcsim",
			MaxInstrs: cfg.MaxInstrs, Stop: cfg.Stop, Ckpt: cfg.Ckpt, Obs: cfg.Obs,
		}),
		trace: cfg.Trace,
		obs:   cfg.Obs,
	}
}

// CycleExact implements sim.Platform: functional simulation has no timing
// model.
func (p *Platform) CycleExact() bool { return false }

// Exec implements sim.Platform: run the executable to completion,
// functionally — the event-free fast loop unless a hook or the trace
// writer needs every instruction's event.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	return p.Run(exe, console, args, func(m *sim.Machine) {
		m.Trace = p.trace
		m.AttachTraceObs(p.obs)
	}, sim.RunFunctional)
}
