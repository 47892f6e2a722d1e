// Package verify implements the continuous differential-verification
// farm behind `marshal verify-farm`: coverage-guided workload generation
// over the workgen kernel library, lockstep co-simulation of the
// simulator's execution tiers (reference, fast, trace-compiled, plus
// batched rtlsim spot-checks), checkpoint-replay bisection of any
// divergence to the exact retired instruction, signature-based failure
// dedup into the CAS, and a crash-safe JSONL farm manifest written
// through the launcher's journal machinery.
//
// The farm turns the repo's core invariant — every fast path is
// architecturally equivalent to the reference interpreter — from a
// point-in-time test suite into a continuously running, coverage-measured
// service.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// pageSize mirrors the simulator's memory page granularity; used to
// classify page-crossing accesses (the soft-TLB slow path).
const pageSize = 4096

// Branch-shape bits: direction × outcome.
const (
	brFwdTaken = iota
	brFwdNot
	brBwdTaken
	brBwdNot
	numBranchShapes
)

var branchShapeNames = [numBranchShapes]string{
	"fwd-taken", "fwd-not-taken", "bwd-taken", "bwd-not-taken",
}

// Memory-access classes: width × kind, plus the soft-TLB-hostile shapes.
const (
	memLoad1 = iota
	memLoad2
	memLoad4
	memLoad8
	memStore1
	memStore2
	memStore4
	memStore8
	memLoadMMIO
	memStoreMMIO
	memLoadCross // access straddling a page boundary (TLB slow path)
	memStoreCross
	numMemClasses
)

var memClassNames = [numMemClasses]string{
	"load1", "load2", "load4", "load8",
	"store1", "store2", "store4", "store8",
	"load-mmio", "store-mmio", "load-page-cross", "store-page-cross",
}

// numOps bounds the architectural opcode space (trace.go pins the
// synthetic space above it, so this is stable).
const numOps = int(isa.OpREMUW) + 1

// Coverage is the farm's model of what a corpus has exercised, folded
// from the reference tier's event stream plus the traced tier's machine
// counters. All fields are plain bitsets/counters so merging is a few
// ORs — deterministic regardless of evaluation order.
type Coverage struct {
	// Ops has bit o set once opcode o retired.
	Ops [2]uint64 `json:"ops"`
	// Branch has branch-shape bits (brFwd/BwdTaken/Not).
	Branch uint32 `json:"branch"`
	// Mem has memory-class bits (memLoad1..memStoreCross).
	Mem uint32 `json:"mem"`
	// Fusion mirrors sim.Machine.TraceFusionKinds: synthetic trace-op
	// kinds observed in dispatched superblocks.
	Fusion uint32 `json:"fusion"`
	// TraceDispatch is set once a superblock actually dispatched.
	TraceDispatch bool `json:"trace_dispatch"`
	// Pages is the peak distinct mapped-page count over the corpus —
	// soft-TLB pressure, the closest observable to TLB-miss coverage.
	Pages int `json:"pages"`
}

// NoteEvent folds one reference-tier instruction event in.
func (c *Coverage) NoteEvent(ev *sim.Event) {
	op := ev.Instr.Op
	if int(op) < numOps {
		c.Ops[op>>6] |= 1 << (op & 63)
	}
	if op.IsBranch() {
		bwd := ev.Instr.Imm < 0
		shape := brFwdTaken
		switch {
		case bwd && ev.Taken:
			shape = brBwdTaken
		case bwd && !ev.Taken:
			shape = brBwdNot
		case !bwd && !ev.Taken:
			shape = brFwdNot
		}
		c.Branch |= 1 << shape
	}
	if ev.MemSize > 0 {
		load := op.IsLoad()
		if ev.MMIO {
			if load {
				c.Mem |= 1 << memLoadMMIO
			} else {
				c.Mem |= 1 << memStoreMMIO
			}
		} else {
			var cls int
			switch ev.MemSize {
			case 1:
				cls = memLoad1
			case 2:
				cls = memLoad2
			case 4:
				cls = memLoad4
			default:
				cls = memLoad8
			}
			if !load {
				cls += memStore1 - memLoad1
			}
			c.Mem |= 1 << cls
		}
		if ev.MemAddr&(pageSize-1)+uint64(ev.MemSize) > pageSize {
			if load {
				c.Mem |= 1 << memLoadCross
			} else {
				c.Mem |= 1 << memStoreCross
			}
		}
	}
}

// NoteMachine folds in the post-run trace-compiler observations of the
// traced tier's machine and the peak page count of any tier.
func (c *Coverage) NoteMachine(m *sim.Machine) {
	c.Fusion |= m.TraceFusionKinds()
	if _, hits, _, _ := m.TraceStats(); hits > 0 {
		c.TraceDispatch = true
	}
	if n := m.Mem.MappedPages(); n > c.Pages {
		c.Pages = n
	}
}

// Merge folds other into c.
func (c *Coverage) Merge(other Coverage) {
	c.Ops[0] |= other.Ops[0]
	c.Ops[1] |= other.Ops[1]
	c.Branch |= other.Branch
	c.Mem |= other.Mem
	c.Fusion |= other.Fusion
	c.TraceDispatch = c.TraceDispatch || other.TraceDispatch
	if other.Pages > c.Pages {
		c.Pages = other.Pages
	}
}

// genOps is the set of opcodes the workgen kernel library can actually
// emit (via the assembler's pseudo-expansions); coverage ratios are
// measured against this reachable set, not the full ISA, so a saturated
// corpus reads as 100% rather than asymptoting below it.
var genOps = func() [2]uint64 {
	var s [2]uint64
	for _, op := range []isa.Op{
		isa.OpADD, isa.OpSUB, isa.OpSLT, isa.OpXOR, isa.OpOR, isa.OpAND,
		isa.OpMUL, isa.OpDIV, isa.OpREMU,
		isa.OpADDI, isa.OpORI, isa.OpANDI, isa.OpSLLI,
		isa.OpLUI, isa.OpAUIPC,
		isa.OpJAL, isa.OpJALR,
		isa.OpBEQ, isa.OpBNE, isa.OpBLT,
		isa.OpLBU, isa.OpLD,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD,
		isa.OpECALL,
	} {
		s[op>>6] |= 1 << (op & 63)
	}
	return s
}()

// numFusionKinds mirrors sim.FusionKindNames.
var numFusionKinds = len(sim.FusionKindNames)

// Ratio returns covered/total over the reachable coverage points — the
// farm's headline coverage number.
func (c *Coverage) Ratio() float64 {
	covered, total := 0, 0
	count := func(bits, want uint64) {
		for want != 0 {
			b := want & -want
			total++
			if bits&b != 0 {
				covered++
			}
			want &^= b
		}
	}
	count(c.Ops[0], genOps[0])
	count(c.Ops[1], genOps[1])
	count(uint64(c.Branch), 1<<numBranchShapes-1)
	count(uint64(c.Mem), 1<<numMemClasses-1)
	count(uint64(c.Fusion), 1<<uint(numFusionKinds)-1)
	total++
	if c.TraceDispatch {
		covered++
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// Gaps maps uncovered coverage points to the kernel kinds most likely to
// close them — the mutation bias. The result is in fixed kind order, so
// identical coverage always yields an identical bias list (corpus
// determinism depends on this).
func (c *Coverage) Gaps() []workgen.KernelKind {
	want := map[workgen.KernelKind]bool{}
	// Branch shapes: the data-driven pattern kernel produces every
	// taken/not × fwd/bwd combination.
	if c.Branch != 1<<numBranchShapes-1 {
		want[workgen.KPatternBranch] = true
	}
	// Store widths and the code-guard path come from the store-fill
	// kernel; wide pointer loads from the chase kernel.
	storeAll := uint32(1<<memStore1 | 1<<memStore2 | 1<<memStore4 | 1<<memStore8)
	if c.Mem&storeAll != storeAll {
		want[workgen.KStoreFill] = true
	}
	loadAll := uint32(1<<memLoad1 | 1<<memLoad8)
	if c.Mem&loadAll != loadAll {
		want[workgen.KPointerChase] = true
		want[workgen.KStreamSum] = true
	}
	// Division/remainder opcodes.
	divBit := func(op isa.Op) bool { return c.Ops[op>>6]&(1<<(op&63)) != 0 }
	if !divBit(isa.OpDIV) || !divBit(isa.OpREMU) {
		want[workgen.KDivide] = true
	}
	if !divBit(isa.OpMUL) {
		want[workgen.KALU] = true
	}
	// Fusion kinds and trace dispatch come overwhelmingly from the
	// fusion-saturated loop kernel.
	if !c.TraceDispatch || c.Fusion != 1<<uint(numFusionKinds)-1 {
		want[workgen.KLoopHeavy] = true
	}
	// Soft-TLB pressure: more pages via big pointer-chase working sets.
	if c.Pages < 32 {
		want[workgen.KPointerChase] = true
	}
	var out []workgen.KernelKind
	for kind := workgen.KernelKind(0); kind < workgen.NumKernelKinds; kind++ {
		if want[kind] {
			out = append(out, kind)
		}
	}
	return out
}

// Report renders a human-readable coverage summary, one line per
// dimension, uncovered points named.
func (c *Coverage) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage %.1f%%\n", 100*c.Ratio())
	var missOps []string
	for op := isa.Op(1); int(op) < numOps; op++ {
		bit := uint64(1) << (op & 63)
		if genOps[op>>6]&bit != 0 && c.Ops[op>>6]&bit == 0 {
			missOps = append(missOps, op.String())
		}
	}
	writeMiss := func(dim string, miss []string) {
		if len(miss) == 0 {
			fmt.Fprintf(&b, "  %-12s complete\n", dim)
		} else {
			fmt.Fprintf(&b, "  %-12s missing: %s\n", dim, strings.Join(miss, " "))
		}
	}
	writeMiss("opcodes", missOps)
	var miss []string
	for i := 0; i < numBranchShapes; i++ {
		if c.Branch&(1<<i) == 0 {
			miss = append(miss, branchShapeNames[i])
		}
	}
	writeMiss("branches", miss)
	miss = nil
	for i := 0; i < numMemClasses; i++ {
		if c.Mem&(1<<i) == 0 {
			miss = append(miss, memClassNames[i])
		}
	}
	writeMiss("memory", miss)
	miss = nil
	for i := 0; i < numFusionKinds; i++ {
		if c.Fusion&(1<<i) == 0 {
			miss = append(miss, sim.FusionKindNames[i])
		}
	}
	writeMiss("fusion", miss)
	if c.TraceDispatch {
		fmt.Fprintf(&b, "  %-12s dispatched (peak %d pages)\n", "traces", c.Pages)
	} else {
		fmt.Fprintf(&b, "  %-12s never dispatched (peak %d pages)\n", "traces", c.Pages)
	}
	if gaps := c.Gaps(); len(gaps) > 0 {
		names := make([]string, len(gaps))
		for i, k := range gaps {
			names[i] = k.String()
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  %-12s %s\n", "bias", strings.Join(names, " "))
	}
	return b.String()
}
