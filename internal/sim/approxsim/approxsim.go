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
// the CPI model its runs charge.
type Platform struct {
	platform.Host
	model model
}

// model is the CPI model sim.RunTimed charges: a fixed-point cycle
// accumulator, and a log whose Cost table holds each op's class cost. It
// reads no fetches or records, so the predecoded loop only sums Cost.
type model struct {
	cfg       Config
	cycles256 uint64 // fixed-point cycle accumulator
	charged   uint64 // whole cycles already pushed to the node clock
	log       *sim.TimedLog
}

var (
	_ sim.Platform    = (*Platform)(nil)
	_ sim.TimingModel = (*model)(nil)
)

// New creates a cycle-approximate platform.
func New(cfg Config) *Platform {
	if cfg.BaseCPI256 == 0 {
		cfg.BaseCPI256 = 256
	}
	l := &sim.TimedLog{LineMask: ^uint64(0)}
	for i := range l.Cost {
		switch op := isa.Op(i); {
		case op.IsBranch():
			l.Cost[i] = cfg.BranchCPI256
		case op.IsLoad():
			l.Cost[i] = cfg.LoadCPI256
		case op.IsStore():
			l.Cost[i] = cfg.StoreCPI256
		case op.IsMul():
			l.Cost[i] = cfg.MulCPI256
		case op.IsMulDiv():
			l.Cost[i] = cfg.DivCPI256
		default:
			l.Cost[i] = cfg.BaseCPI256
		}
	}
	return &Platform{
		Host:  platform.New(platform.Options{Name: "gem5-approx", Kind: "approxsim", MaxInstrs: cfg.MaxInstrs}),
		model: model{cfg: cfg, log: l},
	}
}

// CycleExact implements sim.Platform: approximate timing is not
// cycle-exact, but it is deterministic and monotonic.
func (p *Platform) CycleExact() bool { return false }

// Exec implements sim.Platform.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	return p.Run(exe, console, args, nil, func(m *sim.Machine) (uint64, error) {
		return sim.RunTimed(m, &p.model)
	})
}

// ChargeEvent implements sim.TimingModel: one instruction's class cost,
// or the MMIO cost for a device access, plus trap and device stalls.
func (t *model) ChargeEvent(ev *sim.Event) uint64 {
	cost := t.log.Cost[ev.Instr.Op]
	if ev.MMIO {
		cost = t.cfg.MMIOCPI256
	}
	if ev.Syscall {
		cost += t.cfg.SyscallCPI256
	}
	// Device/hook stalls are modeled exactly (they are already estimates).
	t.cycles256 += cost + ev.Extra*256
	return t.whole()
}

// Log implements sim.TimingModel.
func (t *model) Log() *sim.TimedLog { return t.log }

// Replay implements sim.TimingModel: the logged instructions' costs.
func (t *model) Replay() uint64 {
	t.cycles256 += t.log.Static
	t.log.Reset()
	return t.whole()
}

// whole returns the whole cycles the accumulator has completed since the
// last call, which is what the clock moves by.
func (t *model) whole() uint64 {
	whole := t.cycles256/256 - t.charged
	t.charged += whole
	return whole
}
