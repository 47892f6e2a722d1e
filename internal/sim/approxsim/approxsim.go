// Package approxsim implements a cycle-approximate simulation platform —
// the middle of the simulator spectrum the paper describes (§II-A.2: "In
// between, we find ... cycle-approximate modeling simulators such as gem5
// and Sniper"). It executes the same artifacts as the other platforms but
// estimates time with a table-driven CPI model (fixed cost per instruction
// class plus a statistical branch/memory penalty) instead of simulating
// microarchitectural state. That makes it faster than the cycle-exact
// platform and far more timing-accurate than the functional one — the
// classic detail/performance trade-off.
package approxsim

import (
	"io"

	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/platform"
)

// Config is the CPI model. Costs are in fixed-point 1/256 cycles so the
// model can express fractional average penalties deterministically.
type Config struct {
	// BaseCPI256 is the cost of a simple ALU op (256 = 1.0 CPI).
	BaseCPI256 uint64
	// BranchCPI256 charges the *average* misprediction cost per branch.
	BranchCPI256 uint64
	// LoadCPI256 / StoreCPI256 charge the average memory cost including
	// the statistical cache-miss contribution.
	LoadCPI256  uint64
	StoreCPI256 uint64
	// MulCPI256 / DivCPI256 are long-latency unit costs.
	MulCPI256 uint64
	DivCPI256 uint64
	// MMIOCPI256 covers uncached device access.
	MMIOCPI256 uint64
	// SyscallCPI256 covers trap entry/exit.
	SyscallCPI256 uint64
	// MaxInstrs bounds each Exec (default 500M).
	MaxInstrs uint64
}

// DefaultConfig approximates the cycle-exact default configuration: it was
// fit against the intspeed suite's measured CPIs (see the spectrum
// benchmark), the way gem5 configurations are calibrated against RTL.
func DefaultConfig() Config {
	return Config{
		BaseCPI256:    256,  // 1.00
		BranchCPI256:  512,  // 2.00: 1 + avg mispredict contribution
		LoadCPI256:    640,  // 2.50: 1 + miss-rate * miss-penalty estimate
		StoreCPI256:   512,  // 2.00
		MulCPI256:     1024, // 4.00
		DivCPI256:     5120, // 20.0
		MMIOCPI256:    2816, // 11.0
		SyscallCPI256: 7936, // 31.0
		MaxInstrs:     500_000_000,
	}
}

// Platform is a cycle-approximate simulation node: the shared kernel plus
// the fixed-point accumulator the CPI model charges into.
type Platform struct {
	platform.Host
	cfg       Config
	cycles256 uint64 // fixed-point cycle accumulator
	charged   uint64 // whole cycles already pushed to the node clock
}

var _ sim.Platform = (*Platform)(nil)

// New creates a cycle-approximate platform.
func New(cfg Config) *Platform {
	if cfg.BaseCPI256 == 0 {
		cfg.BaseCPI256 = 256
	}
	return &Platform{
		Host: platform.New(platform.Options{Name: "gem5-approx", Kind: "approxsim", MaxInstrs: cfg.MaxInstrs}),
		cfg:  cfg,
	}
}

// CycleExact implements sim.Platform: approximate timing is not
// cycle-exact, but it is deterministic and monotonic.
func (p *Platform) CycleExact() bool { return false }

// Exec implements sim.Platform.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	return p.Run(exe, console, args, nil, func(m *sim.Machine) (uint64, error) {
		return sim.RunTimed(m, p.charge)
	})
}

// charge adds one instruction's fixed-point cost to the accumulator and
// returns the whole cycles that completes, which is what the clock moves by.
func (p *Platform) charge(ev *sim.Event) uint64 {
	p.cycles256 += p.cost256(ev)
	whole := p.cycles256/256 - p.charged
	p.charged += whole
	return whole
}

func (p *Platform) cost256(ev *sim.Event) uint64 {
	op := ev.Instr.Op
	cost := p.cfg.BaseCPI256
	switch {
	case op.IsBranch():
		cost = p.cfg.BranchCPI256
	case op.IsLoad():
		cost = p.cfg.LoadCPI256
		if ev.MMIO {
			cost = p.cfg.MMIOCPI256
		}
	case op.IsStore():
		cost = p.cfg.StoreCPI256
		if ev.MMIO {
			cost = p.cfg.MMIOCPI256
		}
	case op.IsMul():
		cost = p.cfg.MulCPI256
	case op.IsMulDiv():
		cost = p.cfg.DivCPI256
	}
	if ev.Syscall {
		cost += p.cfg.SyscallCPI256
	}
	// Device/hook stalls are modeled exactly (they are already estimates).
	return cost + ev.Extra*256
}
