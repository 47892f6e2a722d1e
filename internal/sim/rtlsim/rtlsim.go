// Package rtlsim implements the cycle-exact simulation platform — the role
// FireSim plays in FireMarshal's workflow (§II-A.3): slow, deterministic,
// cycle-accurate execution of the exact same artifacts that ran in
// functional simulation. The timing model is a scalar in-order core with L1
// instruction/data caches, a configurable branch predictor (Gshare or TAGE,
// §IV-B), multiplier/divider latencies, and MMIO device timing; multi-node
// workloads share a netsim fabric.
//
// Cycle counts are bit-identical across repeated runs of the same workload
// — the determinism the education case study (§IV-C) relies on: "repeatable
// results down to an exact cycle-count".
package rtlsim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/bpred"
	"firemarshal/internal/sim/cache"
	"firemarshal/internal/sim/platform"
)

// Config parameterizes the timing model. The zero value is not usable; call
// DefaultConfig and override. Its JSON form is the hardware configuration a
// fleet job carries (remote.JobSpec.RTL).
type Config struct {
	// Predictor selects the branch predictor: "bimodal", "gshare", "tage",
	// or "static".
	Predictor string `json:"predictor,omitempty"`
	// ICache / DCache configure the L1 caches.
	ICache cache.Config `json:"icache"`
	DCache cache.Config `json:"dcache"`
	// Penalties and latencies, in cycles.
	BranchMissPenalty uint64 `json:"branch_miss,omitempty"`
	JalrPenalty       uint64 `json:"jalr,omitempty"`
	ICacheMissPenalty uint64 `json:"icache_miss,omitempty"`
	DCacheMissPenalty uint64 `json:"dcache_miss,omitempty"`
	MMIOLatency       uint64 `json:"mmio_latency,omitempty"`
	MulLatency        uint64 `json:"mul_latency,omitempty"`
	DivLatency        uint64 `json:"div_latency,omitempty"`
	SyscallPenalty    uint64 `json:"syscall_penalty,omitempty"`
	// FreqMHz converts cycles to wall-clock time in reports.
	FreqMHz uint64 `json:"freq_mhz,omitempty"`
	// MaxInstrs bounds each Exec (default 500M).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	// FaultMask, when nonzero, injects a deterministic stuck-at fault:
	// results of FaultOp instructions have these bits forced high —
	// modelling defective silicon for post-tapeout bring-up triage (§VI).
	FaultMask uint64 `json:"fault_mask,omitempty"`
	// FaultOp selects the instruction class the fault affects
	// (default OpMUL when FaultMask is set).
	FaultOp isa.Op `json:"fault_op,omitempty"`

	// The runtime handles below belong to the process running the
	// simulation, so they never travel with a configuration.

	// Stop is the cooperative kill switch threaded into each machine (see
	// sim.Machine.Stop); sim.RunTimed polls it between instruction
	// batches, so a killed job stops within a few thousand retired
	// instructions, cycle-exactly.
	Stop <-chan struct{} `json:"-"`
	// Ckpt, when set, records completed Execs and snapshots machine plus
	// timing-model state (predictor tables, cache tags, statistics) at
	// deterministic instruction boundaries, so an interrupted simulation
	// resumes with bit-identical cycle counts (see internal/checkpoint).
	Ckpt *checkpoint.Runtime `json:"-"`
	// Obs is the registry sim_rtlsim_* metrics report into; nil resolves
	// to the process-wide obs.Default.
	Obs *obs.Registry `json:"-"`
}

// DefaultConfig models a BOOM-like core at 1 GHz with 16KiB L1 caches.
func DefaultConfig() Config {
	return Config{
		Predictor:         "tage",
		ICache:            cache.DefaultL1I(),
		DCache:            cache.DefaultL1D(),
		BranchMissPenalty: 8,
		JalrPenalty:       2,
		ICacheMissPenalty: 20,
		DCacheMissPenalty: 30,
		MMIOLatency:       10,
		MulLatency:        4,
		DivLatency:        20,
		SyscallPenalty:    30,
		FreqMHz:           1000,
		MaxInstrs:         500_000_000,
	}
}

// timingClass is everything charge needs to know about an operation's
// kind, decided once per op instead of once per retired instruction.
type timingClass uint8

const (
	classPlain timingClass = iota
	classBranch
	classJALR
	classMem
	classMul
	classDiv
)

// classOf maps every isa.Op to its timing class.
var classOf = func() (tab [256]timingClass) {
	for i := range tab {
		switch op := isa.Op(i); {
		case op.IsBranch():
			tab[i] = classBranch
		case op == isa.OpJALR:
			tab[i] = classJALR
		case op.IsLoad() || op.IsStore():
			tab[i] = classMem
		case op.IsMul():
			tab[i] = classMul
		case op.IsMulDiv():
			tab[i] = classDiv
		}
	}
	return tab
}()

// Stats accumulates timing statistics across a platform's executions.
type Stats struct {
	Cycles       uint64
	Instrs       uint64
	Branches     uint64
	Mispredicts  uint64
	ICacheHits   uint64
	ICacheMisses uint64
	DCacheHits   uint64
	DCacheMisses uint64
	MMIOAccesses uint64
	Syscalls     uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// MispredictRate returns mispredicted branches / branches.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Platform is one cycle-exact simulation node: the shared kernel plus the
// timing model charge consults.
type Platform struct {
	platform.Host
	cfg  Config
	pred bpred.Predictor
	// tage is pred when that is a *bpred.Tage, so charge reaches the
	// default predictor without an interface call per branch.
	tage   *bpred.Tage
	icache *cache.Cache
	dcache *cache.Cache

	// NodeName identifies this node on the network fabric.
	NodeName string

	stats Stats
}

var _ sim.Platform = (*Platform)(nil)

// New builds a cycle-exact platform.
func New(cfg Config) (*Platform, error) {
	// charge() bills multiply/divide ops as latency-1 on top of the base
	// cycle; a user config with a zero latency would wrap uint64. Clamp to
	// the 1-cycle minimum a real pipeline pays.
	if cfg.MulLatency == 0 {
		cfg.MulLatency = 1
	}
	if cfg.DivLatency == 0 {
		cfg.DivLatency = 1
	}
	pred, err := bpred.New(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("rtlsim: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("rtlsim: dcache: %w", err)
	}
	p := &Platform{
		Host: platform.New(platform.Options{
			Name: "firesim", Kind: "rtlsim",
			MaxInstrs: cfg.MaxInstrs, Stop: cfg.Stop, Ckpt: cfg.Ckpt, Obs: cfg.Obs,
		}),
		cfg: cfg, icache: ic, dcache: dc,
	}
	p.SetPredictor(pred)
	if cfg.Ckpt != nil {
		cfg.Ckpt.SaveExtra = p.saveExtra
		cfg.Ckpt.RestoreExtra = p.restoreExtra
	}
	return p, nil
}

// CycleExact implements sim.Platform.
func (p *Platform) CycleExact() bool { return true }

// Stats returns accumulated statistics. The cache models count their own
// hits and misses, so charge does not count them a second time.
func (p *Platform) Stats() Stats {
	st := p.stats
	st.ICacheHits, st.ICacheMisses = p.icache.Hits, p.icache.Misses
	st.DCacheHits, st.DCacheMisses = p.dcache.Hits, p.dcache.Misses
	return st
}

// Config returns the platform's timing configuration.
func (p *Platform) Config() Config { return p.cfg }

// extraState is the timing-model state a checkpoint carries beyond the
// machine's architectural state: everything charge() reads or writes.
type extraState struct {
	Pred   []byte
	ICache []byte
	DCache []byte
	Stats  Stats
}

// saveExtra serializes the timing model for a snapshot. Snapshots fire at
// batch boundaries, after every retired event has been charged, so the
// predictor is between branches (its Save precondition).
func (p *Platform) saveExtra() (map[string][]byte, error) {
	var st extraState
	var err error
	if st.Pred, err = p.pred.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if st.ICache, err = p.icache.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: icache: %w", err)
	}
	if st.DCache, err = p.dcache.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: dcache: %w", err)
	}
	st.Stats = p.Stats()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return map[string][]byte{"rtlsim": buf.Bytes()}, nil
}

// restoreExtra installs a snapshot's timing-model state wholesale. The
// platform must be configured identically to the one that saved.
func (p *Platform) restoreExtra(extra map[string][]byte) error {
	data, ok := extra["rtlsim"]
	if !ok {
		return fmt.Errorf("rtlsim: checkpoint carries no timing-model state")
	}
	var st extraState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("rtlsim: decoding timing-model state: %w", err)
	}
	if err := p.pred.Restore(st.Pred); err != nil {
		return fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if err := p.icache.Restore(st.ICache); err != nil {
		return fmt.Errorf("rtlsim: icache: %w", err)
	}
	if err := p.dcache.Restore(st.DCache); err != nil {
		return fmt.Errorf("rtlsim: dcache: %w", err)
	}
	p.stats = st.Stats
	return nil
}

// Exec implements sim.Platform: run the executable cycle-exactly, every
// retired instruction's event charged to the timing model in retirement
// order. A resumed run restores machine and timing-model state from its
// latest snapshot (saveExtra/restoreExtra), so its cycle counts are
// bit-identical to an uninterrupted run's.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	res, err := p.Run(exe, console, args, p.injectFault, func(m *sim.Machine) (uint64, error) {
		// The method value is bound once per exec: binding it per batch
		// allocates.
		return sim.RunTimed(m, p.charge)
	})
	if err == nil {
		// An exec replayed from its record counts here too; the in-flight
		// restore that always follows a replay installs the snapshot's
		// statistics wholesale, and those already include it.
		p.stats.Instrs += res.Instrs
		p.stats.Cycles += res.Cycles
	}
	return res, err
}

// injectFault installs the configured stuck-at fault on a fresh machine.
func (p *Platform) injectFault(m *sim.Machine) {
	if p.cfg.FaultMask == 0 {
		return
	}
	faultOp := p.cfg.FaultOp
	if faultOp == isa.OpInvalid {
		faultOp = isa.OpMUL
	}
	mask := p.cfg.FaultMask
	m.TamperFn = func(pc uint64, op isa.Op, rd uint64) uint64 {
		if op == faultOp {
			return rd | mask
		}
		return rd
	}
}

// charge computes the cycle cost of one executed instruction.
func (p *Platform) charge(ev *sim.Event) uint64 {
	cost := uint64(1)

	// Instruction fetch.
	if !p.icache.Access(ev.PC) {
		cost += p.cfg.ICacheMissPenalty
	}

	switch classOf[ev.Instr.Op] {
	case classBranch:
		p.stats.Branches++
		var pred bool
		if p.tage != nil {
			pred = p.tage.PredictUpdate(ev.PC, ev.Taken)
		} else {
			pred = p.pred.Predict(ev.PC)
			p.pred.Update(ev.PC, ev.Taken)
		}
		if pred != ev.Taken {
			p.stats.Mispredicts++
			cost += p.cfg.BranchMissPenalty
		}
	case classJALR:
		cost += p.cfg.JalrPenalty
	case classMem:
		if ev.MMIO {
			p.stats.MMIOAccesses++
			cost += p.cfg.MMIOLatency
		} else if !p.dcache.Access(ev.MemAddr) {
			cost += p.cfg.DCacheMissPenalty
		}
	case classMul:
		cost += p.cfg.MulLatency - 1
	case classDiv:
		cost += p.cfg.DivLatency - 1
	}
	if ev.Syscall {
		p.stats.Syscalls++
		cost += p.cfg.SyscallPenalty
	}
	// Device/hook-imposed stall cycles (e.g. a remote page fetch).
	cost += ev.Extra
	return cost
}

// SecondsAt converts cycles to seconds at the configured frequency.
func (p *Platform) SecondsAt(cycles uint64) float64 {
	return float64(cycles) / (float64(p.cfg.FreqMHz) * 1e6)
}

// SetPredictor swaps the branch predictor, supporting ablation studies
// that sweep predictor configurations beyond the named presets.
func (p *Platform) SetPredictor(pred bpred.Predictor) {
	p.pred = pred
	p.tage, _ = pred.(*bpred.Tage)
}
