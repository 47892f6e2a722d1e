package sim

// Checkpoint/restore of a Machine's complete architectural state.
//
// What must be captured is exactly what execution semantics depend on:
// registers, PC, the counter CSRs (cycle/instret, i.e. Now/Instret),
// hart id, halt state, and memory contents. Everything else the Machine
// holds — the predecoded segments, the fallback decode cache, the soft
// TLB, the device index, the code-invalidation guard — is a pure cache
// over memory and is rebuilt on restore rather than serialized: fetch
// always returns decode(mem[pc]) whether it hits a cache or not, so a
// restored machine with cold caches retires the identical instruction
// stream. Devices in the base platform (the UART) are stateless;
// platform-level state (branch predictor, cache models, cycle counters)
// is the platform's to save, via the checkpoint package's extra-state
// hooks.

// ArchState is the serializable architectural core of a Machine. Memory
// travels separately (as content-addressed pages) because it dominates
// the snapshot and dedups across checkpoints.
type ArchState struct {
	Regs     [32]uint64 `json:"regs"`
	PC       uint64     `json:"pc"`
	Now      uint64     `json:"now"`
	Instret  uint64     `json:"instret"`
	HartID   uint64     `json:"hartid"`
	Halted   bool       `json:"halted,omitempty"`
	ExitCode int64      `json:"exit,omitempty"`
}

// SaveArch captures the machine's architectural state. Callers must only
// invoke it at an instruction boundary with state published — in
// practice, from inside a CkptFn.
func (m *Machine) SaveArch() ArchState {
	return ArchState{
		Regs:     m.Regs,
		PC:       m.PC,
		Now:      m.Now,
		Instret:  m.Instret,
		HartID:   m.HartID,
		Halted:   m.Halted,
		ExitCode: m.ExitCode,
	}
}

// RestoreArch installs a saved architectural state and rebuilds the
// decode caches from current memory. Callers must restore memory
// contents first (Mem.Reset + SetPage per checkpointed page); the
// machine must already have its executable loaded so segment bounds
// exist to re-predecode into. The restore boundary is marked as
// checkpointed so the first retired instruction does not immediately
// re-snapshot.
func (m *Machine) RestoreArch(st ArchState) {
	m.Regs = st.Regs
	m.PC = st.PC
	m.Now = st.Now
	m.Instret = st.Instret
	m.HartID = st.HartID
	m.Halted = st.Halted
	m.ExitCode = st.ExitCode
	m.lastCkpt = st.Instret
	m.RebuildCode()
}

// RebuildCode re-predecodes every loaded segment from current memory and
// drops the fallback decode cache. Decoding from memory — not from the
// original executable image — keeps fetch coherent with any code the
// guest wrote over itself before the checkpoint. The code guard is
// recomputed from the segments; it re-widens lazily as out-of-segment
// code is decoded again, exactly as it did on first execution.
func (m *Machine) RebuildCode() {
	m.dcache = nil
	m.resetTraces()
	m.codeMin, m.codeMax = ^uint64(0), 0
	for i := range m.segs {
		s := &m.segs[i]
		for w := s.base; w < s.limit; w += 4 {
			m.predecode(s, (w-s.base)>>2, uint32(m.Mem.Read(w, 4)))
		}
	}
	if len(m.segs) > 0 {
		m.curSeg = &m.segs[0]
	}
	m.updateCodeGuard()
}
