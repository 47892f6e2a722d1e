package sim

import (
	"bytes"
	"fmt"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

// smcInsideTraceProg builds a hot loop (well past hotThreshold), then at
// iteration 40 stores a new instruction word over the loop body — from
// inside the compiled superblock itself, since the store sits on the
// trace's fall-through path. The patched word changes `addi s11, s11, 1`
// (0x00158593-style) into `addi s11, s11, 2` (0x002d8d93), so the
// checksum proves the rewritten instruction really executed afterwards.
const smcInsideTraceProg = `
_start:
    li s0, 0
    li s1, 64
    li s11, 0
    la t1, k_site
    li t2, 40
    li t3, 0x002d8d93     # addi s11, s11, 2
k_loop:
k_site:
    addi s11, s11, 1      # rewritten mid-run
    addi s0, s0, 1
    bne s0, t2, k_next
    sw t3, 0(t1)          # executes from inside the superblock
k_next:
    slt t0, s0, s1
    bnez t0, k_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`

// smcAtGuardProg rewrites the trace's own closing guard: the backward
// bnez that a fused slt+bnez compare-and-branch op guards on becomes a
// nop at iteration 40, so the loop falls through immediately after the
// patch instead of running to s1.
const smcAtGuardProg = `
_start:
    li s0, 0
    li s1, 100
    la t1, g_br
    li t2, 0x00000013     # addi x0, x0, 0 (nop)
    li t3, 40
g_loop:
    addi s0, s0, 1
    bne s0, t3, g_skip
    sw t2, 0(t1)          # rewrite the guard branch itself
g_skip:
    slt t0, s0, s1
g_br:
    bnez t0, g_loop
    andi a0, s0, 255
    li a7, 93
    ecall
`

// TestDiffSMCInsideTrace locks fast ≡ reference when self-modifying code
// rewrites an instruction inside a built superblock, with the store
// retiring from within the trace it invalidates.
func TestDiffSMCInsideTrace(t *testing.T) { diffRun(t, smcInsideTraceProg) }

// TestDiffSMCAtGuard locks fast ≡ reference when the rewritten word is a
// trace's side-exit/closing guard branch.
func TestDiffSMCAtGuard(t *testing.T) { diffRun(t, smcAtGuardProg) }

// TestDiffLoopHeavy runs the fusion-saturated benchmark workload itself
// through the differential harness.
func TestDiffLoopHeavy(t *testing.T) { diffRun(t, workgen.LoopHeavySource(4, 40)) }

// traceRun executes src on a fresh fast-path machine and returns it for
// trace-state introspection.
func traceRun(t *testing.T, src string) *Machine {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine()
	m.Console = &bytes.Buffer{}
	m.SyscallFn = BareSyscalls()
	m.Devices = []Device{&UART{}}
	m.MaxInstrs = 10_000_000
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := RunFunctional(m); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// TestTraceSMCInvalidates proves the SMC programs actually exercise the
// trace layer: superblocks get built, the patching store drops at least
// one, and execution re-compiles afterwards.
func TestTraceSMCInvalidates(t *testing.T) {
	for name, src := range map[string]string{
		"inside": smcInsideTraceProg,
		"guard":  smcAtGuardProg,
	} {
		t.Run(name, func(t *testing.T) {
			m := traceRun(t, src)
			if m.tracesBuilt == 0 {
				t.Error("no traces built; loop never went hot")
			}
			if m.traceInvals == 0 {
				t.Error("no trace invalidated; the store missed the superblock span")
			}
			if m.traceHits == 0 {
				t.Error("no trace dispatched")
			}
		})
	}
}

// TestTraceFusionKinds compiles the loop-heavy kernel and checks the
// inner superblock is a closed loop made entirely of fused pairs — every
// macro-op pattern the compiler knows, with zero unfused singles.
func TestTraceFusionKinds(t *testing.T) {
	m := traceRun(t, workgen.LoopHeavySource(4, 40))
	if m.traceTab == nil {
		t.Fatal("no trace table")
	}
	seen := map[isa.Op]bool{}
	var inner *trace
	for _, tr := range m.traceTab {
		if tr != nil && tr.n == 12 && tr.next == tr.head {
			inner = tr
		}
	}
	if inner == nil {
		t.Fatal("inner-loop superblock (closed, n=12) not found")
	}
	if len(inner.ops) != 6 {
		t.Fatalf("inner loop has %d trace ops, want 6 fused pairs", len(inner.ops))
	}
	for _, op := range inner.ops {
		if op.n != 2 {
			t.Errorf("op %#x at pc %#x not fused (n=%d)", op.op, op.pc, op.n)
		}
		seen[op.op] = true
	}
	for _, k := range []isa.Op{topAddiLd, topLuiAddi, topAddAdd, topAddiSd, topAddiAddi, topCmpBranch} {
		if !seen[k] {
			t.Errorf("fusion kind %#x missing from inner superblock", k)
		}
	}
	if inner.hi-inner.lo != 4*inner.n {
		t.Errorf("span [%#x,%#x) does not cover the %d compiled words", inner.lo, inner.hi, inner.n)
	}
}

// TestTraceUncompilableSentinel checks a hot head whose first instruction
// ends a superblock (ecall) installs an n==0 sentinel — so the head stops
// paying the hotness counter — without counting as a built trace.
func TestTraceUncompilableSentinel(t *testing.T) {
	m := traceRun(t, `
_start:
    li s0, 64
    li a0, 46
    li a7, 0x102
loop:
    ecall
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`)
	if m.traceTab == nil {
		t.Fatal("head never went hot")
	}
	var sentinel bool
	for _, tr := range m.traceTab {
		if tr != nil && tr.n == 0 {
			sentinel = true
		}
	}
	if !sentinel {
		t.Error("no uncompilable sentinel installed for the ecall head")
	}
	if m.tracesBuilt != 0 {
		t.Errorf("tracesBuilt = %d, want 0 (sentinels are not built traces)", m.tracesBuilt)
	}
}

// TestTraceInvalidateOverlap pins the [lo,hi) overlap logic of
// invalidateTraces against both boundary directions.
func TestTraceInvalidateOverlap(t *testing.T) {
	m := NewMachine()
	m.hotTab = new([hotTabSize]hotEntry)
	m.traceTab = new([traceTabSize]*trace)
	install := func(lo, hi uint64) int {
		m.installTrace(&trace{head: lo, lo: lo, hi: hi, n: 1})
		return int((lo >> 2) & (traceTabSize - 1))
	}
	cases := []struct {
		name        string
		first, last uint64
		dropped     bool
	}{
		{"inside", 0x10010, 0x10014, true},
		{"overlap-low-edge", 0xfffc, 0x10004, true},
		{"overlap-high-edge", 0x1003c, 0x10044, true},
		{"just-below", 0xff00, 0x10000, false},
		{"just-above", 0x10040, 0x10080, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			i := install(0x10000, 0x10040)
			before := m.traceInvals
			m.invalidateTraces(c.first, c.last)
			if got := m.traceTab[i] == nil; got != c.dropped {
				t.Errorf("invalidateTraces(%#x,%#x): dropped=%v, want %v", c.first, c.last, got, c.dropped)
			}
			if c.dropped && m.traceInvals != before+1 {
				t.Errorf("traceInvals = %d, want %d", m.traceInvals, before+1)
			}
			// A dropped trace re-arms its head: the next arrival compiles.
			if e := m.hotTab[i]; c.dropped && (e.pc != 0x10000 || e.count != hotThreshold-1) {
				t.Errorf("head's hot entry = %+v after the drop, want it primed to %d", e, hotThreshold-1)
			}
			m.hotTab[i] = hotEntry{}
		})
	}
}

// TestTraceResetOnRebuild checks RebuildCode (the checkpoint-restore
// path) discards all trace-compiler state, so a restored run re-detects
// hotness from scratch.
func TestTraceResetOnRebuild(t *testing.T) {
	m := traceRun(t, workgen.LoopHeavySource(4, 40))
	if m.traceTab == nil || m.hotTab == nil {
		t.Fatal("run built no trace state")
	}
	m.RebuildCode()
	if m.traceTab != nil || m.hotTab != nil {
		t.Error("RebuildCode left trace-compiler state installed")
	}
}

// TestTraceCheckpointRestoreMidTrace is the trace-layer version of
// TestCheckpointRestoreResumes: the workload is fusion-dense so the
// snapshot boundary lands while superblock dispatch dominates, and the
// restored machine — whose trace tables start cold — must still replay
// the tail bit-identically.
func TestTraceCheckpointRestoreMidTrace(t *testing.T) {
	exe, err := asm.Assemble(workgen.LoopHeavySource(8, 64), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func() (*Machine, *bytes.Buffer) {
		m := NewMachine()
		var console bytes.Buffer
		m.Console = &console
		m.SyscallFn = BareSyscalls()
		m.Devices = []Device{&UART{}}
		m.MaxInstrs = 10_000_000
		m.LoadExecutable(exe, DefaultStackTop)
		return m, &console
	}

	straight, straightConsole := newMachine()
	const every = 1000
	var snapArch ArchState
	snapPages := map[uint64][]byte{}
	var snapConsoleLen int
	straight.CkptEvery = every
	straight.CkptFn = func(m *Machine) error {
		if m.Instret != 3*every {
			return nil
		}
		snapArch = m.SaveArch()
		for _, pn := range m.Mem.PageNumbers() {
			snapPages[pn] = append([]byte(nil), m.Mem.PageBytes(pn)...)
		}
		snapConsoleLen = straightConsole.Len()
		return nil
	}
	if _, err := RunFunctional(straight); err != nil {
		t.Fatal(err)
	}
	if snapArch.Instret != 3*every {
		t.Fatal("mid-run snapshot never captured")
	}
	if straight.tracesBuilt == 0 || straight.traceHits == 0 {
		t.Fatal("straight run never dispatched a trace; test would be vacuous")
	}

	resumed, resumedConsole := newMachine()
	resumed.Mem.Reset()
	for pn, data := range snapPages {
		if err := resumed.Mem.SetPage(pn, data); err != nil {
			t.Fatal(err)
		}
	}
	resumed.RestoreArch(snapArch)
	if resumed.traceTab != nil || resumed.hotTab != nil {
		t.Fatal("restore left warm trace state; resumed run would not re-detect hotness")
	}
	if _, err := RunFunctional(resumed); err != nil {
		t.Fatal(err)
	}

	if resumed.Snap() != straight.Snap() {
		t.Errorf("final snapshot diverges:\nresumed  %+v\nstraight %+v", resumed.Snap(), straight.Snap())
	}
	if resumed.Now != straight.Now {
		t.Errorf("cycles = %d, want %d", resumed.Now, straight.Now)
	}
	wantSuffix := straightConsole.String()[snapConsoleLen:]
	if resumedConsole.String() != wantSuffix {
		t.Errorf("console suffix = %q, want %q", resumedConsole.String(), wantSuffix)
	}
	if resumed.tracesBuilt == 0 {
		t.Error("resumed run never rebuilt traces")
	}
}

// mmioLoopSource polls the device at base every iteration: a byte load
// folded into the checksum and a byte store of the counter. When the
// counter reaches faultAt (never, if it is past iters) the store's base
// moves onto recFault, so the next store raises the recording device's
// error from the middle of the loop.
func mmioLoopSource(base uint64, iters, faultAt int) string {
	return fmt.Sprintf(`
_start:
    li t5, %#x
    li s0, 0
    li s1, %d
    li s5, %d
    li s11, 0
m_loop:
    lbu t2, 5(t5)
    add s11, s11, t2
    sb s0, 7(t5)
    addi s0, s0, 1
    bne s0, s5, m_next
    li t5, %#x
m_next:
    blt s0, s1, m_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, base, iters, faultAt, recFault-7)
}

// smcLoopSource is a loop whose head is rewritten every 64 iterations,
// toggling `addi s11, s11, 1` and `addi s11, s11, 2`.
func smcLoopSource(iters int) string {
	return fmt.Sprintf(`
_start:
    li s11, 0
    la t1, s_loop
    li t3, 0x001d8d93
    li t4, 0x00300000
    li s0, 0
    li s1, %d
s_loop:
    addi s11, s11, 1
    addi s0, s0, 1
    andi t0, s0, 63
    bnez t0, s_next
    xor t3, t3, t4
    sw t3, 0(t1)
s_next:
    blt s0, s1, s_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, iters)
}

// fwdBranchSource is a loop with a forward branch that is always taken,
// the direction a static guess gets wrong.
func fwdBranchSource(iters int) string {
	return fmt.Sprintf(`
_start:
    li s11, 0
    li s0, 0
    li s1, %d
f_loop:
    addi s11, s11, 3
    xor s11, s11, s0
    bnez s1, f_ok
    li s11, 0
f_ok:
    addi s0, s0, 1
    blt s0, s1, f_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, iters)
}

// TestDiffTraceTierShapes locks fast ≡ traced ≡ reference, device log
// included, on the three loops the trace tier learns its way through:
// device accesses, a rewritten head, and an always-taken forward branch.
func TestDiffTraceTierShapes(t *testing.T) {
	for name, src := range map[string]string{
		"mmio":       mmioLoopSource(recBase, 2000, 1<<30),
		"smc":        smcLoopSource(2000),
		"fwd-branch": fwdBranchSource(2000),
	} {
		t.Run(name, func(t *testing.T) { diffRun(t, src) })
	}
}

// TestDiffDeviceErrorInTrace raises a device error from a device op in
// the middle of a trace: every leg must return the same error with the
// same PC, Instret and Now published, after the same device accesses.
func TestDiffDeviceErrorInTrace(t *testing.T) {
	src := mmioLoopSource(recBase, 2000, 500)
	diffRun(t, src)
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runLeg(exe, RunFunctional, false)
	if got.err == nil {
		t.Fatal("traced run did not fail")
	}
	var device bool
	for _, tr := range got.m.traceTab {
		if tr == nil {
			continue
		}
		for _, op := range tr.ops {
			device = device || op.op == topDevice
		}
	}
	if !device {
		t.Error("no device op compiled; the error was not raised inside a trace")
	}
}

// TestTraceTierPays holds the trace tier to its yield on the loops the
// static compiler lost on: at 3 M instructions, most instructions retire
// inside traces. The fusion-saturated loop-heavy shape, the one trace
// dispatch speeds up most, must retire nearly all of its 1.6 M
// instructions inside traces.
func TestTraceTierPays(t *testing.T) {
	for _, c := range []struct {
		name   string
		src    string
		minCov float64
	}{
		{"mmio", mmioLoopSource(UARTBase, 500_000, 1<<30), 0.9},
		{"smc", smcLoopSource(594_000), 0.95},
		{"fwd-branch", fwdBranchSource(500_000), 0.9},
		{"loop-heavy", workgen.LoopHeavySource(2048, 64), 0.95},
	} {
		t.Run(c.name, func(t *testing.T) {
			exe, err := asm.Assemble(c.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := runLeg(exe, RunFunctional, false)
			if got.err != nil {
				t.Fatal(got.err)
			}
			built, hits, invals, traced := got.m.TraceStats()
			if cov := float64(traced) / float64(got.n); cov < c.minCov {
				t.Errorf("coverage %.2f over %d instructions, want >= %.2f (built %d, dispatches %d, invalidations %d)",
					cov, got.n, c.minCov, built, hits, invals)
			}
		})
	}
}

// TestTraceInvalidationsCountBuiltTraces checks sim_trace_invalidations
// counts only compiled traces a store dropped: on a loop whose head is
// rewritten every 64 iterations, every invalidation drops a trace that
// was built, so there can be no more invalidations than traces built.
func TestTraceInvalidationsCountBuiltTraces(t *testing.T) {
	m := traceRun(t, smcLoopSource(20_000))
	built, _, invals, _ := m.TraceStats()
	if invals == 0 {
		t.Fatal("no invalidation; the rewrite missed the trace")
	}
	if invals > built {
		t.Errorf("%d invalidations > %d traces built: a sentinel was counted", invals, built)
	}
}

// FuzzTraceTierVsReference fuzzes fast ≡ traced ≡ reference over one loop
// template whose device-access period, store-into-code period and
// forward-branch bias come from the fuzz bytes (0 = never), so guards
// flip, device ops get learned and retired, and traces are rewritten
// under one another in every proportion. The bias byte is also the
// pattern of two hammocks: one over a pattern-branch body, and one whose
// skipped addi sits right before the join that is the closing guard. The
// seeds after the first seven pick hammock patterns: alternating, every
// eighth, a long run, and mixed with device ops and rewrites.
func FuzzTraceTierVsReference(f *testing.F) {
	for _, seed := range [][3]uint8{{0, 0, 0}, {1, 0, 0}, {0, 64, 0}, {0, 0, 1}, {3, 17, 2}, {64, 1, 255}, {255, 255, 255},
		{0, 0, 0x01}, {0, 0, 0x07}, {0, 0, 0x80}, {5, 0, 0x55}, {0, 9, 0x33}, {2, 3, 0x0f}} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, mmio, smc, bias uint8) {
		const iters = 2000
		period := func(b uint8) int {
			if b == 0 {
				return iters + 1
			}
			return int(b)
		}
		diffRun(t, fmt.Sprintf(`
_start:
    li s11, 0
    li s0, 0
    li s1, %[1]d
    li t5, %#[2]x
    la t1, z_site
    li t3, 0x001d8d93
    li t4, 0x00300000
    li s2, %[3]d
    li s3, %[4]d
    li s4, %[5]d
    li s6, %[6]d
    li s7, %[7]d
z_loop:
z_site:
    addi s11, s11, 1
    addi s0, s0, 1
    and t6, s0, s6
    beqz t6, z_pat
    addi s11, s11, 3
z_pat:
    addi s2, s2, -1
    bnez s2, z_nodev
    li s2, %[3]d
    lbu t2, 5(t5)
    add s11, s11, t2
    sb s0, 7(t5)
z_nodev:
    addi s3, s3, -1
    bnez s3, z_nosmc
    li s3, %[4]d
    xor t3, t3, t4
    sw t3, 0(t1)
z_nosmc:
    addi s4, s4, -1
    bnez s4, z_nobias
    li s4, %[5]d
    xori s11, s11, 0x55
z_nobias:
    and t6, s0, s7
    bnez t6, z_join
    addi s11, s11, 5
z_join:
    blt s0, s1, z_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, iters, recBase, period(mmio), period(smc), period(bias), bias, ^bias))
	})
}
