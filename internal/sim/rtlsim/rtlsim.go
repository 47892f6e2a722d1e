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
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/bpred"
	"firemarshal/internal/sim/cache"
)

// Config parameterizes the timing model. The zero value is not usable; call
// DefaultConfig and override.
type Config struct {
	// Predictor selects the branch predictor: "bimodal", "gshare", "tage",
	// or "static".
	Predictor string
	// ICache / DCache configure the L1 caches.
	ICache cache.Config
	DCache cache.Config
	// Penalties and latencies, in cycles.
	BranchMissPenalty uint64
	JalrPenalty       uint64
	ICacheMissPenalty uint64
	DCacheMissPenalty uint64
	MMIOLatency       uint64
	MulLatency        uint64
	DivLatency        uint64
	SyscallPenalty    uint64
	// FreqMHz converts cycles to wall-clock time in reports.
	FreqMHz uint64
	// MaxInstrs bounds each Exec (default 500M).
	MaxInstrs uint64
	// FaultMask, when nonzero, injects a deterministic stuck-at fault:
	// results of FaultOp instructions have these bits forced high —
	// modelling defective silicon for post-tapeout bring-up triage (§VI).
	FaultMask uint64
	// FaultOp selects the instruction class the fault affects
	// (default OpMUL when FaultMask is set).
	FaultOp isa.Op
	// Stop is the cooperative kill switch threaded into each machine (see
	// sim.Machine.Stop); polled between instruction batches, so a killed
	// job stops within batchSize retired instructions, cycle-exactly.
	Stop <-chan struct{}
	// Ckpt, when set, records completed Execs and snapshots machine plus
	// timing-model state (predictor tables, cache tags, statistics) at
	// deterministic instruction boundaries, so an interrupted simulation
	// resumes with bit-identical cycle counts (see internal/checkpoint).
	Ckpt *checkpoint.Runtime
	// Obs is the registry sim_rtlsim_* metrics report into; nil resolves
	// to the process-wide obs.Default.
	Obs *obs.Registry
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

// batchSize is how many instructions each RunBatch call may retire before
// returning to the platform loop to poll Stop.
const batchSize = 4096

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

// Platform is one cycle-exact simulation node.
type Platform struct {
	cfg  Config
	pred bpred.Predictor
	// tage is pred when that is a *bpred.Tage (resolved at the top of each
	// Exec), so charge reaches the default predictor without an interface
	// call per branch.
	tage      *bpred.Tage
	icache    *cache.Cache
	dcache    *cache.Cache
	cycles    uint64
	devices   []sim.Device
	hooks     []sim.MemHook
	fallbacks []sim.SyscallFallback

	// NodeName identifies this node on the network fabric.
	NodeName string

	stats Stats
}

var _ sim.Platform = (*Platform)(nil)

// New builds a cycle-exact platform.
func New(cfg Config) (*Platform, error) {
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 500_000_000
	}
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
	p := &Platform{cfg: cfg, pred: pred, icache: ic, dcache: dc}
	p.devices = []sim.Device{&sim.UART{}}
	if cfg.Ckpt != nil {
		cfg.Ckpt.SaveExtra = p.saveExtra
		cfg.Ckpt.RestoreExtra = p.restoreExtra
	}
	return p, nil
}

// Name implements sim.Platform.
func (p *Platform) Name() string { return "firesim" }

// CycleExact implements sim.Platform.
func (p *Platform) CycleExact() bool { return true }

// Cycles implements sim.Platform.
func (p *Platform) Cycles() uint64 { return p.cycles }

// Charge implements sim.Platform.
func (p *Platform) Charge(n uint64) { p.cycles += n }

// AddDevice implements sim.Platform.
func (p *Platform) AddDevice(d sim.Device) { p.devices = append(p.devices, d) }

// AddHook implements sim.Platform.
func (p *Platform) AddHook(h sim.MemHook) { p.hooks = append(p.hooks, h) }

// AddSyscall implements sim.Platform.
func (p *Platform) AddSyscall(fb sim.SyscallFallback) { p.fallbacks = append(p.fallbacks, fb) }

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

// Exec implements sim.Platform: run the executable cycle-exactly. With
// checkpointing enabled, execs a crashed attempt already completed replay
// from their records (charging the recorded cycles), and the crashed
// attempt's in-flight exec restores machine and timing-model state from
// its latest snapshot — the resumed run's cycle counts are bit-identical
// to an uninterrupted run's.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	ck := p.cfg.Ckpt
	var sig string
	if ck != nil {
		if len(p.hooks) > 0 {
			return nil, fmt.Errorf("rtlsim: checkpointing is incompatible with memory hooks")
		}
		sig = checkpoint.ExecSig(exe.Entry, args)
		if rec, out, ok, err := ck.ReplayNext(sig); err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		} else if ok {
			if console != nil {
				if _, err := console.Write(out); err != nil {
					return nil, err
				}
			}
			// Statistics are not re-derived here: the in-flight restore
			// that always follows replay installs them wholesale.
			p.cycles += rec.Cycles
			return &sim.ExecResult{Exit: rec.Exit, Instrs: rec.Instrs, Cycles: rec.Cycles}, nil
		}
	}

	m := sim.NewMachine()
	m.Console = console
	m.Devices = p.devices
	m.Hooks = p.hooks
	fbs := make([]func(*sim.Machine, uint64) (bool, error), len(p.fallbacks))
	for i, fb := range p.fallbacks {
		fbs[i] = fb
	}
	m.SyscallFn = sim.BareSyscalls(fbs...)
	m.MaxInstrs = p.cfg.MaxInstrs
	if p.cfg.FaultMask != 0 {
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
	m.LoadExecutable(exe, sim.DefaultStackTop)
	sim.SetupArgv(m, args)

	// Baselines predate BeginExec: a restore advances Instret and Now to
	// the snapshot boundary, and the deltas below must span the whole exec.
	startCycles := p.cycles
	startInstrs := m.Instret
	m.Now = p.cycles
	m.Stop = p.cfg.Stop
	if ck != nil {
		w, _, err := ck.BeginExec(sig, m, console)
		if err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		}
		m.Console = w
	}
	// Metric shards attach after any restore, so a resumed exec reports
	// only instructions it actually simulates; RunBatch flushes them once
	// per batch.
	m.AttachObs(p.cfg.Obs.Counter("sim_rtlsim_instrs_total").Shard(),
		p.cfg.Obs.Counter("sim_rtlsim_cycles_total").Shard())
	wallStart := time.Now()
	// Batched stepping: the machine retires up to batchSize instructions
	// per call, charging the timing model after each one. Event order and
	// charge order are identical to per-step simulation, so cycle counts
	// stay bit-exact; the batch only amortizes loop bookkeeping. The
	// method value is bound once: binding it per batch allocates.
	p.tage, _ = p.pred.(*bpred.Tage)
	charge := p.charge
	for !m.Halted {
		if m.Interrupted() {
			p.cycles = m.Now
			return nil, fmt.Errorf("rtlsim: %w", sim.ErrStopped)
		}
		if _, err := m.RunBatch(batchSize, charge); err != nil {
			p.cycles = m.Now
			return nil, fmt.Errorf("rtlsim: %w", err)
		}
	}
	p.cycles = m.Now
	instrs := m.Instret - startInstrs
	cycles := p.cycles - startCycles
	// A 0-duration exec produces +Inf here; Gauge.Set clamps it to 0.
	p.cfg.Obs.Gauge("sim_rtlsim_mips").Set(float64(instrs) / time.Since(wallStart).Seconds() / 1e6)
	p.stats.Instrs += instrs
	p.stats.Cycles += cycles
	if ck != nil {
		if err := ck.FinishExec(m.ExitCode, instrs, cycles); err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		}
	}
	return &sim.ExecResult{Exit: m.ExitCode, Instrs: instrs, Cycles: cycles}, nil
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
func (p *Platform) SetPredictor(pred bpred.Predictor) { p.pred = pred }
