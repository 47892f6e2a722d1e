// Package sim implements the guest machine shared by the functional
// simulator (internal/sim/funcsim, the QEMU/Spike role) and the cycle-exact
// simulator (internal/sim/rtlsim, the FireSim role). The machine executes
// RV64IM-subset instructions over sparse memory with memory-mapped devices
// and an environment-provided syscall handler. Each Step returns an Event
// describing what happened microarchitecturally so timing models can charge
// cycles without re-interpreting the instruction.
package sim

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
)

// ErrStopped reports a run aborted through the machine's Stop channel
// (launcher timeout or cancellation), as opposed to a guest halt or trap.
var ErrStopped = errors.New("sim: stopped")

// Device is a memory-mapped peripheral.
type Device interface {
	// Name identifies the device in traces and errors.
	Name() string
	// AddrRange is the one fixed range [lo, hi) of addresses the device
	// claims. The machine indexes devices by it; two devices on one
	// machine may not overlap.
	AddrRange() (lo, hi uint64)
	// Load reads size bytes of device state. extra is additional cycles the
	// access costs beyond a regular uncached access (cycle-exact mode only).
	Load(m *Machine, addr uint64, size int) (val uint64, extra uint64, err error)
	// Store writes size bytes of device state.
	Store(m *Machine, addr uint64, size int, val uint64) (extra uint64, err error)
}

// MemHook observes data memory accesses before they happen. The Page Fault
// Accelerator and the software-paging baseline install hooks to model
// remote-memory residency.
type MemHook interface {
	// BeforeAccess may service a fault for addr. It returns extra cycles the
	// access costs (cycle-exact mode only).
	BeforeAccess(m *Machine, addr uint64, store bool) (extra uint64, err error)
}

// Event describes one executed instruction for timing models.
type Event struct {
	PC     uint64
	Instr  isa.Instr
	NextPC uint64
	// Taken is set for conditional branches that were taken.
	Taken bool
	// MemAddr/MemSize are valid for loads and stores.
	MemAddr uint64
	MemSize int
	// MMIO is set when the access hit a device rather than RAM.
	MMIO bool
	// Extra is additional cycles charged by devices or memory hooks.
	Extra uint64
	// Syscall is set when the instruction was an ECALL.
	Syscall bool
}

// Machine is one simulated hart plus its memory and devices.
type Machine struct {
	Regs [32]uint64
	PC   uint64
	Mem  *Memory

	// Devices are the memory-mapped peripherals, each claiming its
	// AddrRange.
	Devices []Device
	// Hooks observe data accesses (remote-memory models).
	Hooks []MemHook
	// SyscallFn handles ECALL. The handler may halt the machine, modify
	// registers, or return an error to abort simulation.
	SyscallFn func(m *Machine) error
	// Console receives guest console output (the serial port log).
	Console io.Writer

	// Now is the current cycle, maintained by the driving simulator and
	// visible to the guest through rdcycle. Functional simulation advances
	// it by one per instruction.
	Now uint64
	// Instret counts retired instructions.
	Instret uint64
	// HartID is exposed through the mhartid CSR.
	HartID uint64

	// Halted is set when the guest exits; ExitCode holds its status.
	Halted   bool
	ExitCode int64

	// MaxInstrs aborts runaway programs when nonzero.
	MaxInstrs uint64

	// Stop, when non-nil, is a cooperative kill switch: the run loops poll
	// it at coarse intervals (chunk boundaries on the fast path, every few
	// thousand instructions on the reference path) and return ErrStopped
	// once it is closed. The parallel launcher wires a job's ctx.Done()
	// here so per-job timeouts and Ctrl-C kill a simulation without
	// per-instruction overhead and without stalling sibling jobs.
	Stop <-chan struct{}

	// Trace, when set, receives one line per retired instruction (the
	// role of spike -l). Tracing is slow; leave nil in normal runs.
	Trace io.Writer

	// TraceOff disables the trace compiler: the fast loop never counts
	// hotness, never compiles superblocks, and never dispatches them.
	// The verification farm uses it to run the predecoded fast loop as
	// its own execution tier, distinct from the trace-compiled tier.
	TraceOff bool

	// TamperFn, when set, transforms each result before register writeback
	// — deterministic fault injection for post-tapeout bring-up triage
	// (the §VI use case of running identical suites against potentially
	// faulty silicon).
	TamperFn func(pc uint64, op isa.Op, rd uint64) uint64

	// CkptEvery/CkptFn install deterministic checkpointing: when both are
	// set, every run loop — the fast path, the reference path, and the
	// batched cycle-exact path — arranges to pause at exact multiples of
	// CkptEvery retired instructions and invoke CkptFn there, with all
	// architectural state published. A snapshot at instruction N is
	// therefore identical no matter which loop produced it.
	CkptEvery uint64
	CkptFn    func(m *Machine) error
	// lastCkpt is the Instret at the last snapshot (or restore), so each
	// boundary fires at most once.
	lastCkpt uint64

	// instrShard/cycleShard, when attached (AttachObs), receive
	// retired-instruction and cycle deltas at fast-loop chunk boundaries
	// and run exits — one uncontended atomic add per ~1Mi instructions,
	// never per instruction. obsInstret/obsNow track what has already
	// been flushed so repeated flushes are idempotent.
	instrShard, cycleShard *obs.Shard
	obsInstret, obsNow     uint64

	// segs holds every loaded segment predecoded into dense instruction
	// form; curSeg caches the segment of the last fetch (a fetch TLB).
	segs   []segCode
	curSeg *segCode
	// codeMin/codeMax bound every word whose decoded form is cached
	// anywhere (predecoded segment entries or decode-cache entries);
	// predLo/predHi widen that by the maximum store size so the store path
	// can detect writes into cached code with one comparison. Stores to
	// never-decoded data (the common case) skip invalidation entirely.
	codeMin, codeMax uint64
	predLo, predHi   uint64

	// hotTab counts executions of backward-branch targets; traceTab is
	// the direct-mapped superblock cache compiled from them (trace.go).
	// Both are pure caches over the predecoded segments: reset on load
	// and restore, dropped by invalidateCode, never serialized.
	hotTab   *[hotTabSize]hotEntry
	traceTab *[traceTabSize]*trace
	// Machine-lifetime trace-cache stats. tracesBuilt/traceHits/
	// traceInvals flush as deltas to the attached shards
	// (AttachTraceObs); traceInstrs feeds the coverage gauge (fraction
	// of all retired instructions that retired inside a trace).
	tracesBuilt, traceHits, traceInvals, traceInstrs uint64
	traceBuiltShard, traceHitShard, traceInvalShard  *obs.Shard
	traceCovGauge                                    *obs.Gauge
	obsTracesBuilt, obsTraceHits, obsTraceInvals     uint64
	// fusionSeen accumulates the fusion-kind masks of every dispatched
	// trace — one OR per dispatch, read by TraceFusionKinds for the
	// verification farm's coverage model.
	fusionSeen uint32

	// dcache is a small direct-mapped decode cache for code executed
	// outside the predecoded segments (runtime-written code, misaligned
	// fetches). Unlike a map it is self-bounded. Allocated on first miss.
	dcache *[dcacheSize]dcacheEntry

	// Sorted device address-range index: devRanges holds every device's
	// AddrRange (sorted by base, disjoint). devLo/devHi bound every claimed
	// address so the common non-MMIO access is a single comparison. devN
	// tracks len(Devices) at index build time so appends force a rebuild
	// at the next run entry (syncDevices).
	devRanges []devRange
	devLo     uint64
	devHi     uint64
	devN      int

	// batchEv is the Event RunBatch and runFast hand to the timing model,
	// reused for every instruction; it lives here so a run allocates
	// nothing.
	batchEv Event
}

// AttachObs binds the machine's instruction/cycle metric shards. The
// baseline is the machine's current counts, so work already on the books
// — a restored checkpoint's Instret, a prior exec on the same machine —
// is never re-reported as newly simulated.
func (m *Machine) AttachObs(instrs, cycles *obs.Shard) {
	m.instrShard, m.cycleShard = instrs, cycles
	m.obsInstret, m.obsNow = m.Instret, m.Now
}

// AttachTraceObs binds the trace-cache metric shards and coverage gauge
// to reg (nil resolves to obs.Default). Like AttachObs, the baseline is
// the machine's current counts so prior execs never re-report.
func (m *Machine) AttachTraceObs(reg *obs.Registry) {
	m.traceBuiltShard = reg.Counter("sim_traces_built").Shard()
	m.traceHitShard = reg.Counter("sim_trace_dispatch_hits").Shard()
	m.traceInvalShard = reg.Counter("sim_trace_invalidations").Shard()
	m.traceCovGauge = reg.Gauge("sim_trace_coverage")
	m.obsTracesBuilt, m.obsTraceHits, m.obsTraceInvals = m.tracesBuilt, m.traceHits, m.traceInvals
}

// flushObs publishes the instruction/cycle delta since the last flush to
// the attached shards. The run loops call it at chunk boundaries and on
// exit; it is delta-based, so extra calls are harmless, and with nothing
// attached it costs a few compares.
func (m *Machine) flushObs() {
	if m.instrShard == nil && m.cycleShard == nil && m.traceHitShard == nil {
		return
	}
	m.instrShard.Add(m.Instret - m.obsInstret)
	m.cycleShard.Add(m.Now - m.obsNow)
	m.obsInstret, m.obsNow = m.Instret, m.Now
	if m.traceHitShard != nil {
		m.traceBuiltShard.Add(m.tracesBuilt - m.obsTracesBuilt)
		m.traceHitShard.Add(m.traceHits - m.obsTraceHits)
		m.traceInvalShard.Add(m.traceInvals - m.obsTraceInvals)
		m.obsTracesBuilt, m.obsTraceHits, m.obsTraceInvals = m.tracesBuilt, m.traceHits, m.traceInvals
		if m.Instret != 0 {
			m.traceCovGauge.Set(float64(m.traceInstrs) / float64(m.Instret))
		}
	}
}

// ckptDist returns how many instructions may retire before the next
// checkpoint boundary (effectively unbounded when checkpointing is off).
// Run loops clamp their budgets with it so they stop exactly on the
// boundary. It assumes the current boundary, if any, was already handled
// by maybeCheckpoint.
func (m *Machine) ckptDist() uint64 {
	if m.CkptFn == nil || m.CkptEvery == 0 {
		return ^uint64(0)
	}
	return m.CkptEvery - m.Instret%m.CkptEvery
}

// maybeCheckpoint invokes CkptFn when execution sits exactly on a
// checkpoint boundary that has not fired yet. Halted machines are never
// snapshotted — the job is finishing and its terminal record supersedes
// any checkpoint.
func (m *Machine) maybeCheckpoint() error {
	if m.CkptFn == nil || m.CkptEvery == 0 || m.Halted {
		return nil
	}
	if m.Instret == 0 || m.Instret%m.CkptEvery != 0 || m.Instret == m.lastCkpt {
		return nil
	}
	m.lastCkpt = m.Instret
	return m.CkptFn(m)
}

// Interrupted reports whether the Stop channel is closed. It never
// blocks; with no Stop channel installed it is a single nil check.
func (m *Machine) Interrupted() bool {
	if m.Stop == nil {
		return false
	}
	select {
	case <-m.Stop:
		return true
	default:
		return false
	}
}

// segCode is one predecoded segment: instrs[i] decodes the word at
// base+4i. Words that fail to decode (data, invalidated code) are stored
// as the zero Instr, whose Op is OpInvalid. uops mirrors instrs in the
// 8-byte pre-split form the fast loop fetches with a single load.
type segCode struct {
	base   uint64
	limit  uint64 // base + byte length, rounded down to a word multiple
	instrs []isa.Instr
	uops   []uop
}

// uop is a predecoded instruction packed for the fast loop: the operand
// fields pre-split into bytes and the immediate narrowed to int32 (every
// RV64IM immediate is 32-bit representable; anything that is not stays on
// the slow path as a zero uop). 8 bytes total, so fetch is one load.
type uop struct {
	Op       isa.Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int32
}

// dcacheSize bounds the fallback decode cache (entries, power of two).
const dcacheSize = 1024

// dcacheEntry tags a decoded instruction with pc+1 (zero = invalid).
type dcacheEntry struct {
	tag uint64
	in  isa.Instr
}

// devRange is one entry of the sorted device index.
type devRange struct {
	lo, hi uint64
	d      Device
}

// NewMachine returns a machine with empty memory.
func NewMachine() *Machine {
	return &Machine{
		Mem:     NewMemory(),
		Console: io.Discard,
		devN:    -1,
	}
}

// LoadExecutable copies segments into memory and points the PC at the entry.
// The stack pointer is initialized just below stackTop. Every segment is
// predecoded for fast fetch; stores into predecoded ranges invalidate the
// affected words so fetch stays coherent with memory.
func (m *Machine) LoadExecutable(exe *isa.Executable, stackTop uint64) {
	for _, seg := range exe.Segments {
		m.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	m.PC = exe.Entry
	if stackTop != 0 {
		m.Regs[2] = stackTop
	}
	m.dcache = nil
	m.resetTraces()
	m.segs = m.segs[:0]
	m.curSeg = nil
	m.codeMin, m.codeMax = ^uint64(0), 0
	for _, seg := range exe.Segments {
		n := len(seg.Data) / 4
		if n == 0 {
			continue
		}
		sc := segCode{
			base:   seg.Addr,
			limit:  seg.Addr + uint64(n*4),
			instrs: make([]isa.Instr, n),
			uops:   make([]uop, n),
		}
		for i := 0; i < n; i++ {
			m.predecode(&sc, uint64(i), binary.LittleEndian.Uint32(seg.Data[i*4:]))
		}
		m.segs = append(m.segs, sc)
	}
	if len(m.segs) > 0 {
		m.curSeg = &m.segs[0]
	}
	m.updateCodeGuard()
}

// predecode installs the decoded form of raw as word i of segment s — or
// clears the slot when raw is not an instruction (data, invalidated code)
// — and widens the cached-code bounds to cover it.
func (m *Machine) predecode(s *segCode, i uint64, raw uint32) {
	in, err := isa.Decode(raw)
	if err != nil {
		s.instrs[i], s.uops[i] = isa.Instr{}, uop{}
		return
	}
	s.instrs[i], s.uops[i] = in, packUop(in)
	m.noteCode(s.base + 4*i)
}

// noteCode widens codeMin/codeMax to cover the decoded word at w.
func (m *Machine) noteCode(w uint64) {
	if w < m.codeMin {
		m.codeMin = w
	}
	if w+4 > m.codeMax {
		m.codeMax = w + 4
	}
}

// packUop narrows a decoded instruction to the fast loop's 8-byte form.
// The rare immediate outside int32 range stays a zero uop (slow path).
func packUop(in isa.Instr) uop {
	if int64(int32(in.Imm)) != in.Imm {
		return uop{}
	}
	return uop{Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2, Imm: int32(in.Imm)}
}

// fetchSlow is the out-of-line remainder of StepInto's fetch, which tries
// the current predecoded segment inline: segment switch, then the bounded
// decode cache, and finally a fresh decode from memory.
func (m *Machine) fetchSlow(pc uint64) (isa.Instr, error) {
	if pc&3 == 0 && pc-m.predLo < m.predHi-m.predLo {
		for i := range m.segs {
			s := &m.segs[i]
			if pc-s.base < s.limit-s.base {
				if in := s.instrs[(pc-s.base)>>2]; in.Op != isa.OpInvalid {
					m.curSeg = s
					return in, nil
				}
				break
			}
		}
	}
	if m.dcache != nil {
		if e := &m.dcache[(pc>>2)&(dcacheSize-1)]; e.tag == pc+1 {
			return e.in, nil
		}
	}
	raw := uint32(m.Mem.Read(pc, 4))
	in, err := isa.Decode(raw)
	if err != nil {
		return in, m.trapf("%v (instr %#08x)", err, raw)
	}
	if m.dcache == nil {
		m.dcache = new([dcacheSize]dcacheEntry)
	}
	m.dcache[(pc>>2)&(dcacheSize-1)] = dcacheEntry{tag: pc + 1, in: in}
	m.noteCode(pc)
	m.updateCodeGuard()
	return in, nil
}

// updateCodeGuard derives the store-side invalidation bound from the cached
// code range. A store of up to 8 bytes starting 7 bytes below codeMin can
// still overlap it, so the guard widens by that much; invalidateCode
// re-checks precise overlap.
func (m *Machine) updateCodeGuard() {
	if m.codeMax == 0 || m.codeMin >= m.codeMax {
		m.predLo, m.predHi = 0, 0
		return
	}
	lo := m.codeMin
	if lo >= 7 {
		lo -= 7
	} else {
		lo = 0
	}
	m.predLo, m.predHi = lo, m.codeMax
}

// invalidateCode drops predecoded/cached instructions overlapping a store
// of size bytes at addr, so the next fetch re-decodes from memory. Callers
// check the [predLo, predHi) bound first; this is the rare in-bounds path.
func (m *Machine) invalidateCode(addr uint64, size int) {
	first := addr &^ 3
	last := (addr + uint64(size) - 1) &^ 3
	m.invalidateTraces(first, last+4)
	for i := range m.segs {
		s := &m.segs[i]
		if last < s.base || first >= s.limit {
			continue
		}
		lo, hi := first, last
		if lo < s.base {
			lo = s.base
		}
		if hi >= s.limit {
			hi = s.limit - 4
		}
		for w := lo; w <= hi; w += 4 {
			s.instrs[(w-s.base)>>2] = isa.Instr{}
			s.uops[(w-s.base)>>2] = uop{}
		}
	}
	if m.dcache != nil {
		for w := first; w <= last; w += 4 {
			if e := &m.dcache[(w>>2)&(dcacheSize-1)]; e.tag == w+1 {
				*e = dcacheEntry{}
			}
		}
	}
}

// syncDevices brings the device index up to date with Devices. Every run
// entry (Step, RunBatch, runFast) calls it, so the per-access lookup never
// has to check.
func (m *Machine) syncDevices() error {
	if len(m.Devices) == m.devN {
		return nil
	}
	return m.indexDevices()
}

// indexDevices (re)builds the sorted device range index. Two devices whose
// ranges overlap are an error — a lookup must have one answer — and leave
// the index stale, so every later run entry reports them again.
func (m *Machine) indexDevices() error {
	m.devRanges = m.devRanges[:0]
	m.devLo, m.devHi = ^uint64(0), 0
	for _, d := range m.Devices {
		lo, hi := d.AddrRange()
		m.devRanges = append(m.devRanges, devRange{lo: lo, hi: hi, d: d})
		if lo < m.devLo {
			m.devLo = lo
		}
		if hi > m.devHi {
			m.devHi = hi
		}
	}
	slices.SortFunc(m.devRanges, func(a, b devRange) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(m.devRanges); i++ {
		if a, b := m.devRanges[i-1], m.devRanges[i]; b.lo < a.hi {
			return fmt.Errorf("sim: devices %s [%#x,%#x) and %s [%#x,%#x) overlap",
				a.d.Name(), a.lo, a.hi, b.d.Name(), b.lo, b.hi)
		}
	}
	m.devN = len(m.Devices)
	return nil
}

// ErrTrap is returned for guest faults (bad fetch, bad instruction).
type ErrTrap struct {
	PC  uint64
	Msg string
}

func (e *ErrTrap) Error() string { return fmt.Sprintf("sim: trap at pc=%#x: %s", e.PC, e.Msg) }

func (m *Machine) trapf(format string, args ...any) error {
	return &ErrTrap{PC: m.PC, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) device(addr uint64) Device {
	if addr-m.devLo >= m.devHi-m.devLo {
		return nil
	}
	for i := range m.devRanges {
		r := &m.devRanges[i]
		if addr < r.lo {
			break
		}
		if addr < r.hi {
			return r.d
		}
	}
	return nil
}

// Step executes one instruction. It is the single execution path used by
// every simulator, which is what guarantees functional equivalence between
// simulation levels.
func (m *Machine) Step() (Event, error) {
	var ev Event
	if err := m.syncDevices(); err != nil {
		return ev, err
	}
	err := m.StepInto(&ev)
	return ev, err
}

// StepInto is the allocation-free Step variant the run loops are built on:
// the event is written into *ev instead of returned by value. It assumes
// the device index is current; outside this package use Step, RunBatch or
// a Run function, which see to that first.
func (m *Machine) StepInto(ev *Event) error {
	*ev = Event{PC: m.PC}
	if m.Halted {
		return m.trapf("step on halted machine")
	}
	if m.MaxInstrs > 0 && m.Instret >= m.MaxInstrs {
		return m.trapf("instruction limit %d exceeded", m.MaxInstrs)
	}

	// Fetch, with the predecoded-segment hit path written inline (as a
	// function with its fallback call it is just past the inlining budget,
	// and this runs once per instruction).
	var in isa.Instr
	if s := m.curSeg; s != nil && m.PC-s.base < s.limit-s.base && m.PC&3 == 0 {
		in = s.instrs[(m.PC-s.base)>>2]
	}
	if in.Op == isa.OpInvalid {
		var err error
		in, err = m.fetchSlow(m.PC)
		if err != nil {
			return err
		}
	}
	ev.Instr = in
	next := m.PC + 4

	rs1 := m.Regs[in.Rs1]
	rs2 := m.Regs[in.Rs2]
	var rd uint64
	writeRd := true

	switch in.Op {
	case isa.OpADD:
		rd = rs1 + rs2
	case isa.OpSUB:
		rd = rs1 - rs2
	case isa.OpSLL:
		rd = sll(rs1, rs2)
	case isa.OpSLT:
		rd = slt(rs1, rs2)
	case isa.OpSLTU:
		rd = sltu(rs1, rs2)
	case isa.OpXOR:
		rd = rs1 ^ rs2
	case isa.OpSRL:
		rd = srl(rs1, rs2)
	case isa.OpSRA:
		rd = sra(rs1, rs2)
	case isa.OpOR:
		rd = rs1 | rs2
	case isa.OpAND:
		rd = rs1 & rs2
	case isa.OpMUL:
		rd = rs1 * rs2
	case isa.OpMULH:
		rd = mulh(rs1, rs2)
	case isa.OpMULHU:
		rd = mulhu(rs1, rs2)
	case isa.OpDIV:
		rd = div(rs1, rs2)
	case isa.OpDIVU:
		rd = divu(rs1, rs2)
	case isa.OpREM:
		rd = rem(rs1, rs2)
	case isa.OpREMU:
		rd = remu(rs1, rs2)
	case isa.OpADDI:
		rd = rs1 + uint64(in.Imm)
	case isa.OpSLTI:
		rd = slt(rs1, uint64(in.Imm))
	case isa.OpSLTIU:
		rd = sltu(rs1, uint64(in.Imm))
	case isa.OpXORI:
		rd = rs1 ^ uint64(in.Imm)
	case isa.OpORI:
		rd = rs1 | uint64(in.Imm)
	case isa.OpANDI:
		rd = rs1 & uint64(in.Imm)
	case isa.OpSLLI:
		rd = sll(rs1, uint64(in.Imm))
	case isa.OpSRLI:
		rd = srl(rs1, uint64(in.Imm))
	case isa.OpSRAI:
		rd = sra(rs1, uint64(in.Imm))
	case isa.OpLUI:
		rd = uint64(in.Imm)
	case isa.OpAUIPC:
		rd = m.PC + uint64(in.Imm)
	case isa.OpJAL:
		rd = next
		next = m.PC + uint64(in.Imm)
	case isa.OpJALR:
		rd = next
		next = (rs1 + uint64(in.Imm)) &^ 1
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		writeRd = false
		taken := false
		switch in.Op {
		case isa.OpBEQ:
			taken = rs1 == rs2
		case isa.OpBNE:
			taken = rs1 != rs2
		case isa.OpBLT:
			taken = int64(rs1) < int64(rs2)
		case isa.OpBGE:
			taken = int64(rs1) >= int64(rs2)
		case isa.OpBLTU:
			taken = rs1 < rs2
		case isa.OpBGEU:
			taken = rs1 >= rs2
		}
		ev.Taken = taken
		if taken {
			next = m.PC + uint64(in.Imm)
		}
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU:
		addr := rs1 + uint64(in.Imm)
		size := accessSize(in.Op)
		ev.MemAddr, ev.MemSize = addr, size
		extra, v, mmio, err := m.load(addr, size)
		if err != nil {
			return err
		}
		ev.Extra += extra
		ev.MMIO = mmio
		rd = extendLoad(in.Op, v)
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		writeRd = false
		addr := rs1 + uint64(in.Imm)
		size := accessSize(in.Op)
		ev.MemAddr, ev.MemSize = addr, size
		extra, mmio, err := m.store(addr, size, rs2)
		if err != nil {
			return err
		}
		ev.Extra += extra
		ev.MMIO = mmio
	case isa.OpECALL:
		writeRd = false
		ev.Syscall = true
		if m.SyscallFn == nil {
			return m.trapf("ECALL with no syscall handler")
		}
		if err := m.SyscallFn(m); err != nil {
			return err
		}
	case isa.OpEBREAK:
		writeRd = false
		m.Halted = true
		m.ExitCode = -1
	case isa.OpCSRRS, isa.OpCSRRW:
		v, err := m.readCSR(uint16(in.Imm))
		if err != nil {
			return err
		}
		rd = v
		// CSR writes to the counters are ignored (read-only counters).
	case isa.OpADDW:
		rd = addw(rs1, rs2)
	case isa.OpSUBW:
		rd = subw(rs1, rs2)
	case isa.OpSLLW:
		rd = sllw(rs1, rs2)
	case isa.OpSRLW:
		rd = srlw(rs1, rs2)
	case isa.OpSRAW:
		rd = sraw(rs1, rs2)
	case isa.OpADDIW:
		rd = addw(rs1, uint64(in.Imm))
	case isa.OpSLLIW:
		rd = sllw(rs1, uint64(in.Imm))
	case isa.OpSRLIW:
		rd = srlw(rs1, uint64(in.Imm))
	case isa.OpSRAIW:
		rd = sraw(rs1, uint64(in.Imm))
	case isa.OpMULW:
		rd = mulw(rs1, rs2)
	case isa.OpDIVW:
		rd = divw(rs1, rs2)
	case isa.OpDIVUW:
		rd = divuw(rs1, rs2)
	case isa.OpREMW:
		rd = remw(rs1, rs2)
	case isa.OpREMUW:
		rd = remuw(rs1, rs2)
	case isa.OpFENCE:
		writeRd = false
	default:
		return m.trapf("unimplemented op %v", in.Op)
	}

	if writeRd && in.Rd != 0 {
		if m.TamperFn != nil {
			rd = m.TamperFn(ev.PC, in.Op, rd)
		}
		m.Regs[in.Rd] = rd
	}
	m.Regs[0] = 0
	if !m.Halted {
		m.PC = next
	}
	ev.NextPC = m.PC
	m.Instret++
	if m.Trace != nil {
		fmt.Fprintf(m.Trace, "core 0: %#08x (%#08x) %s\n", ev.PC, in.Raw, isa.Disassemble(in))
	}
	return nil
}

func (m *Machine) readCSR(csr uint16) (uint64, error) {
	switch csr {
	case isa.CSRCycle, isa.CSRTime:
		return m.Now, nil
	case isa.CSRInstret:
		return m.Instret, nil
	case isa.CSRMHartID:
		return m.HartID, nil
	default:
		return 0, m.trapf("unimplemented CSR %#x", csr)
	}
}

func (m *Machine) load(addr uint64, size int) (extra, val uint64, mmio bool, err error) {
	for _, h := range m.Hooks {
		e, herr := h.BeforeAccess(m, addr, false)
		if herr != nil {
			return 0, 0, false, herr
		}
		extra += e
	}
	if d := m.device(addr); d != nil {
		v, e, derr := d.Load(m, addr, size)
		if derr != nil {
			return 0, 0, true, derr
		}
		return extra + e, v, true, nil
	}
	return extra, m.Mem.Read(addr, size), false, nil
}

func (m *Machine) store(addr uint64, size int, val uint64) (extra uint64, mmio bool, err error) {
	for _, h := range m.Hooks {
		e, herr := h.BeforeAccess(m, addr, true)
		if herr != nil {
			return 0, false, herr
		}
		extra += e
	}
	if d := m.device(addr); d != nil {
		e, derr := d.Store(m, addr, size, val)
		if derr != nil {
			return 0, true, derr
		}
		return extra + e, true, nil
	}
	m.Mem.Write(addr, size, val)
	if addr-m.predLo < m.predHi-m.predLo {
		m.invalidateCode(addr, size)
	}
	return extra, false, nil
}

// accessSize is the width in bytes of a load or store op.
func accessSize(op isa.Op) int {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLW, isa.OpLWU, isa.OpSW:
		return 4
	default:
		return 8
	}
}

// Snapshot captures architectural state for determinism checks.
type Snapshot struct {
	Regs    [32]uint64
	PC      uint64
	Instret uint64
}

// Snap returns the current architectural snapshot.
func (m *Machine) Snap() Snapshot {
	return Snapshot{Regs: m.Regs, PC: m.PC, Instret: m.Instret}
}
