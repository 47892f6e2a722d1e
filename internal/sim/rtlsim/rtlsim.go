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
// timing model its runs charge.
type Platform struct {
	platform.Host
	model model

	// NodeName identifies this node on the network fabric.
	NodeName string
}

// model is the timing model sim.RunTimed charges: the caches, the branch
// predictor, fixed latencies and the statistics, plus the log the
// predecoded loop writes for it. ChargeEvent prices one full Event; Replay
// prices the log with the same three parts — an op's static cycles from
// log.Cost, its fetch, and its branch or memory access.
type model struct {
	cfg  Config
	pred bpred.Predictor
	// tage is pred when that is a *bpred.Tage, so a branch reaches the
	// default predictor without an interface call.
	tage   *bpred.Tage
	icache *cache.Cache
	dcache *cache.Cache
	stats  Stats
	log    *sim.TimedLog
}

var (
	_ sim.Platform    = (*Platform)(nil)
	_ sim.TimingModel = (*model)(nil)
)

// New builds a cycle-exact platform.
func New(cfg Config) (*Platform, error) {
	// A multiply/divide op costs its latency, 1 of which is the base
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
		model: model{cfg: cfg, icache: ic, dcache: dc, log: newLog(cfg)},
	}
	p.SetPredictor(pred)
	if cfg.Ckpt != nil {
		cfg.Ckpt.SaveExtra = p.saveExtra
		cfg.Ckpt.RestoreExtra = p.restoreExtra
	}
	return p, nil
}

// newLog builds the timed loop's log for cfg, allocated once per platform
// so an Exec allocates nothing for it: every op costs 1 cycle, a JALR its
// penalty more and a multiply or divide its latency; branches log their
// outcome and loads and stores their address.
func newLog(cfg Config) *sim.TimedLog {
	l := sim.NewTimedLog(cfg.ICache.LineBytes)
	for i := range l.Cost {
		l.Cost[i] = 1
		switch op := isa.Op(i); {
		case op.IsBranch():
			l.Kind[i] = sim.RecBranch
		case op == isa.OpJALR:
			l.Cost[i] += cfg.JalrPenalty
		case op.IsLoad() || op.IsStore():
			l.Kind[i] = sim.RecMem
		case op.IsMul():
			l.Cost[i] += cfg.MulLatency - 1
		case op.IsMulDiv():
			l.Cost[i] += cfg.DivLatency - 1
		}
	}
	return l
}

// CycleExact implements sim.Platform.
func (p *Platform) CycleExact() bool { return true }

// Stats returns accumulated statistics. The cache models count their own
// hits and misses, so the model does not count them a second time.
func (p *Platform) Stats() Stats {
	t := &p.model
	st := t.stats
	st.ICacheHits, st.ICacheMisses = t.icache.Hits, t.icache.Misses
	st.DCacheHits, st.DCacheMisses = t.dcache.Hits, t.dcache.Misses
	return st
}

// Config returns the platform's timing configuration.
func (p *Platform) Config() Config { return p.model.cfg }

// extraState is the timing-model state a checkpoint carries beyond the
// machine's architectural state: everything the model reads or writes
// except its log, which is empty whenever a snapshot is taken.
type extraState struct {
	Pred   []byte
	ICache []byte
	DCache []byte
	Stats  Stats
}

// saveExtra serializes the timing model for a snapshot. Snapshots fire at
// batch boundaries, after the log has been replayed and every retired
// event charged, so the predictor is between branches (its Save
// precondition).
func (p *Platform) saveExtra() (map[string][]byte, error) {
	t := &p.model
	var st extraState
	var err error
	if st.Pred, err = t.pred.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if st.ICache, err = t.icache.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: icache: %w", err)
	}
	if st.DCache, err = t.dcache.Save(); err != nil {
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
	t := &p.model
	if err := t.pred.Restore(st.Pred); err != nil {
		return fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if err := t.icache.Restore(st.ICache); err != nil {
		return fmt.Errorf("rtlsim: icache: %w", err)
	}
	if err := t.dcache.Restore(st.DCache); err != nil {
		return fmt.Errorf("rtlsim: dcache: %w", err)
	}
	t.stats = st.Stats
	// The restored I-cache has no latest access, so the next fetch is
	// logged and looked up, never counted as a repeat.
	t.log.Line = ^uint64(0)
	return nil
}

// Exec implements sim.Platform: run the executable cycle-exactly, every
// retired instruction charged to the timing model in retirement order. A
// resumed run restores machine and timing-model state from its latest
// snapshot (saveExtra/restoreExtra), so its cycle counts are
// bit-identical to an uninterrupted run's.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	res, err := p.Run(exe, console, args, p.injectFault, func(m *sim.Machine) (uint64, error) {
		return sim.RunTimed(m, &p.model)
	})
	if err == nil {
		// An exec replayed from its record counts here too; the in-flight
		// restore that always follows a replay installs the snapshot's
		// statistics wholesale, and those already include it.
		p.model.stats.Instrs += res.Instrs
		p.model.stats.Cycles += res.Cycles
	}
	return res, err
}

// injectFault installs the configured stuck-at fault on a fresh machine.
func (p *Platform) injectFault(m *sim.Machine) {
	cfg := &p.model.cfg
	if cfg.FaultMask == 0 {
		return
	}
	faultOp := cfg.FaultOp
	if faultOp == isa.OpInvalid {
		faultOp = isa.OpMUL
	}
	mask := cfg.FaultMask
	m.TamperFn = func(pc uint64, op isa.Op, rd uint64) uint64 {
		if op == faultOp {
			return rd | mask
		}
		return rd
	}
}

// ChargeEvent implements sim.TimingModel: one instruction's cycles from its
// full Event, as the sum of the parts Replay charges a logged instruction
// with, plus what only a full Event carries — MMIO, a syscall, device
// stalls. It leaves the fetched line as the log's latest, as the I-cache's
// memo now is.
func (t *model) ChargeEvent(ev *sim.Event) uint64 {
	op := ev.Instr.Op
	t.log.Line = ev.PC &^ t.log.LineMask
	cost := t.log.Cost[op] + t.fetch(ev.PC)
	switch t.log.Kind[op] {
	case sim.RecBranch:
		cost += t.branch(ev.PC, ev.Taken)
	case sim.RecMem:
		if ev.MMIO {
			t.stats.MMIOAccesses++
			cost += t.cfg.MMIOLatency
		} else {
			cost += t.data(ev.MemAddr)
		}
	}
	if ev.Syscall {
		t.stats.Syscalls++
		cost += t.cfg.SyscallPenalty
	}
	// Device/hook-imposed stall cycles (e.g. a remote page fetch).
	return cost + ev.Extra
}

// Log implements sim.TimingModel.
func (t *model) Log() *sim.TimedLog { return t.log }

// Replay implements sim.TimingModel: the log's static cycles plus each
// record in retirement order. Each structure sees exactly its own accesses
// in the order ChargeEvent would have shown them, and the same-line fetches
// before a record are counted as I-cache hits before its way search (the
// LRU clock is Hits + Misses), so every cycle, statistic and Save byte is
// the per-instruction one.
func (t *model) Replay() uint64 {
	l := t.log
	cycles := l.Static
	for _, r := range l.Recs[:l.N] {
		switch r.Kind {
		case sim.RecFetch:
			t.icache.Repeat(uint64(r.N))
			cycles += t.fetch(r.Addr)
		case sim.RecBranch:
			cycles += t.branch(r.Addr, r.N != 0)
		default:
			cycles += t.data(r.Addr)
		}
	}
	t.icache.Repeat(l.Hits)
	l.Reset()
	return cycles
}

// fetch charges an instruction fetch.
func (t *model) fetch(pc uint64) uint64 {
	if t.icache.Access(pc) {
		return 0
	}
	return t.cfg.ICacheMissPenalty
}

// branch predicts and trains on one conditional branch and charges a
// mispredict.
func (t *model) branch(pc uint64, taken bool) uint64 {
	t.stats.Branches++
	var pred bool
	if t.tage != nil {
		pred = t.tage.PredictUpdate(pc, taken)
	} else {
		pred = t.pred.Predict(pc)
		t.pred.Update(pc, taken)
	}
	if pred == taken {
		return 0
	}
	t.stats.Mispredicts++
	return t.cfg.BranchMissPenalty
}

// data charges a load or store to RAM.
func (t *model) data(addr uint64) uint64 {
	if t.dcache.Access(addr) {
		return 0
	}
	return t.cfg.DCacheMissPenalty
}

// SecondsAt converts cycles to seconds at the configured frequency.
func (p *Platform) SecondsAt(cycles uint64) float64 {
	return float64(cycles) / (float64(p.model.cfg.FreqMHz) * 1e6)
}

// SetPredictor swaps the branch predictor, supporting ablation studies
// that sweep predictor configurations beyond the named presets.
func (p *Platform) SetPredictor(pred bpred.Predictor) {
	p.model.pred = pred
	p.model.tage, _ = pred.(*bpred.Tage)
}
