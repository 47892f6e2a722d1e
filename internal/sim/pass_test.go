package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/workgen"
)

// The trace tier's pass loop and its hammocks, each shape run through
// diffRun (reference ≡ fast ≡ traced: registers, PC, Instret, Now and
// every device access) and checked to have really reached the compiled
// path, so that a wrong count of skipped bodies or a wrong re-entry fails
// here rather than passing untested.

// tracedLeg runs src on the traced leg alone and fails t unless traces
// were dispatched and an installed trace holds an op of kind want.
func tracedLeg(t *testing.T, src string, want isa.Op) legResult {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	got := runLeg(exe, RunFunctional, false)
	if got.m.traceHits == 0 {
		t.Fatal("no trace was dispatched; the test would be vacuous")
	}
	if findTrace(got.m, func(tr *trace) bool {
		return slices.ContainsFunc(tr.ops, func(op traceOp) bool { return op.op == want })
	}) == nil {
		t.Fatalf("no installed trace holds a %#x op; the test would be vacuous", want)
	}
	return got
}

// findTrace returns an installed compiled trace of m that ok accepts.
func findTrace(m *Machine, ok func(*trace) bool) *trace {
	if m.traceTab == nil {
		return nil
	}
	for _, tr := range m.traceTab {
		if tr != nil && tr.n != 0 && ok(tr) {
			return tr
		}
	}
	return nil
}

// hammockGuardSource is a loop with two hammocks, one taken and one not
// on every pass, ahead of a forward guard that leaves the trace on every
// 64th pass: each of those side exits comes after a skipped body.
func hammockGuardSource(iters int) string {
	return fmt.Sprintf(`
_start:
    li s11, 0
    li s0, 0
    li s1, %d
h_loop:
    andi t0, s0, 1
    beqz t0, h_a          # hammock: skips its body on even passes
    addi s11, s11, 3
h_a:
    andi t1, s0, 1
    bnez t1, h_b          # hammock: skips its body on odd passes
    xori s11, s11, 5
h_b:
    andi t2, s0, 63
    bnez t2, h_c          # a guard, over two instructions
    slli s11, s11, 1
    addi s11, s11, 1
h_c:
    addi s0, s0, 1
    blt s0, s1, h_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, iters)
}

// TestDiffHammockBeforeGuardExit takes a hammock and skips another in the
// pass a later guard leaves: the exit must retire the pass's instructions
// less the skipped body.
func TestDiffHammockBeforeGuardExit(t *testing.T) {
	src := hammockGuardSource(3000)
	diffRun(t, src)
	got := tracedLeg(t, src, topSkip)
	if got.m.exitKind == exitNone {
		t.Error("no side exit was taken; the guard never left the trace")
	}
}

// TestDiffHammockBodyWritesSource skips a body that writes the register
// its own branch reads: the branch must see the value from before it.
func TestDiffHammockBodyWritesSource(t *testing.T) {
	src := `
_start:
    li s11, 0
    li s0, 0
    li s1, 3000
w_loop:
    andi t0, s0, 3
    bnez t0, w_join
    addi t0, t0, 9        # the body writes the branch's source
w_join:
    add s11, s11, t0
    slli s11, s11, 1
    addi s0, s0, 1
    blt s0, s1, w_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`
	diffRun(t, src)
	tracedLeg(t, src, topSkip)
}

// TestDiffHammockEndsOpenTrace fills a loop body so that a hammock's body
// is the last op traceMaxOps allows: the trace is open, ends at the join,
// and each pass retires its length less the body it skipped.
func TestDiffHammockEndsOpenTrace(t *testing.T) {
	var fill bytes.Buffer
	for k := 1; k <= traceMaxOps-3; k++ {
		fmt.Fprintf(&fill, "    xori s11, s11, %d\n", k)
	}
	src := fmt.Sprintf(`
_start:
    li s11, 0
    li s0, 0
    li s1, 3000
e_loop:
%s    andi t0, s0, 1
    beqz t0, e_join
    addi s11, s11, 7
e_join:
    addi s0, s0, 1
    blt s0, s1, e_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, fill.String())
	diffRun(t, src)
	got := tracedLeg(t, src, topSkip)
	if findTrace(got.m, func(tr *trace) bool {
		k := len(tr.ops)
		return tr.next != tr.head && k == traceMaxOps && tr.ops[k-2].op == topSkip && tr.next == tr.ops[k-1].pc+4
	}) == nil {
		t.Error("no open trace ends in a hammock")
	}
}

// ckptLeg runs src with a checkpoint every `every` instructions and
// returns, per checkpoint, the architectural state and the pages written
// since the one before (what a checkpoint's TakeDirty captures).
func ckptLeg(t *testing.T, src string, every uint64, run func(*Machine) (uint64, error), traceOff bool) ([]string, *Machine) {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var seen []string
	leg := runLeg(exe, func(m *Machine) (uint64, error) {
		m.CkptEvery = every
		m.CkptFn = func(m *Machine) error {
			var dirty []uint64
			for pn := range m.Mem.TakeDirty() {
				dirty = append(dirty, pn)
			}
			slices.Sort(dirty)
			seen = append(seen, fmt.Sprintf("%+v dirty %x", m.SaveArch(), dirty))
			return nil
		}
		return run(m)
	}, traceOff)
	if leg.err != nil {
		t.Fatalf("run: %v", leg.err)
	}
	return seen, leg.m
}

// diffCkpts runs src with checkpoints on the three legs and fails t unless
// every checkpoint shows the same state and dirty pages on all three, and
// the traced leg dispatched traces holding an op of kind want.
func diffCkpts(t *testing.T, src string, every uint64, want isa.Op) []string {
	t.Helper()
	ref, _ := ckptLeg(t, src, every, RunReference, false)
	fast, _ := ckptLeg(t, src, every, RunFunctional, true)
	traced, m := ckptLeg(t, src, every, RunFunctional, false)
	if len(ref) < 4 {
		t.Fatalf("%d checkpoints; the test would be vacuous", len(ref))
	}
	for name, got := range map[string][]string{"fast": fast, "traced": traced} {
		if len(got) != len(ref) {
			t.Fatalf("%s took %d checkpoints, reference %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("checkpoint %d diverges:\n  reference: %s\n  %s: %s", i, ref[i], name, got[i])
			}
		}
	}
	if m.traceHits == 0 || findTrace(m, func(tr *trace) bool {
		return slices.ContainsFunc(tr.ops, func(op traceOp) bool { return op.op == want })
	}) == nil {
		t.Fatalf("the traced leg ran no trace holding a %#x op; the test would be vacuous", want)
	}
	return ref
}

// TestTraceCkptBoundaryInSkippingPass puts checkpoint boundaries (every
// 997 instructions, so they fall at every offset of a pass) into passes
// that skip hammock bodies: a dispatch must stop short of each boundary
// and every leg surface there in the same state.
func TestTraceCkptBoundaryInSkippingPass(t *testing.T) {
	diffCkpts(t, hammockGuardSource(3000), 997, topSkip)
}

// TestDiffStraddlingAccessInTrace loads and stores across a page boundary
// from inside a trace, plain and fused, in every width that can straddle:
// the pass loop leaves for each and re-enters after it.
func TestDiffStraddlingAccessInTrace(t *testing.T) {
	src := `
_start:
    la t1, s_edge         # four bytes below a page boundary
    li s0, 0
    li s1, 3000
    li s11, 0
s_loop:
    ld t2, 0(t1)
    add t2, t2, s0
    sd t2, 0(t1)
    lw t3, 2(t1)
    add s11, s11, t3
    sw s11, 2(t1)
    lh t4, 3(t1)
    xor s11, s11, t4
    sh s0, 3(t1)
    lhu t4, 3(t1)
    xor s11, s11, t4
    addi t5, t1, 1        # addi+ld, fused
    ld t6, -1(t5)
    xor s11, s11, t6
    addi t5, t1, 1        # addi+sd, fused
    sd s11, -1(t5)
    lwu t6, 1(t1)
    add s11, s11, t6
    addi s0, s0, 1
    blt s0, s1, s_loop
    andi a0, s11, 255
    li a7, 93
    ecall
.data
    .align 12
s_pad: .space 4092
s_edge: .space 16
`
	diffRun(t, src)
	got := tracedLeg(t, src, topAddiSd)
	_, _, _, traced := got.m.TraceStats()
	if share := float64(traced) / float64(got.n); share < 0.9 {
		t.Errorf("in-trace share %.2f, want >= 0.9: the straddling accesses left the trace", share)
	}
}

// TestTraceFirstStoreToCleanPage stores, from inside a trace and in every
// width, into pages every checkpoint's TakeDirty has just made clean
// again: each first store leaves the pass loop, which must mark the page
// dirty, so every checkpoint lists it, exactly as the reference loop's do.
// Checkpoints fall every 997 instructions, so a boundary moves through
// every offset of the loop and each store is, after some boundary, the
// first to its page from inside the trace rather than from the fast loop
// that finishes the interrupted iteration.
func TestTraceFirstStoreToCleanPage(t *testing.T) {
	src := `
_start:
    la t1, c_buf          # page one
    li t0, 4096
    add t3, t1, t0        # page two
    add t4, t3, t0        # page three
    add t5, t4, t0        # page four
    add t6, t5, t0        # page five
    li s0, 0
    li s1, 4000
    li s11, 0
c_loop:
    sd s0, 0(t1)          # each page's only store: a clean one is marked
    add s11, s11, s0      # dirty by that store or by none
    addi t2, t3, 8        # addi+sd, fused
    sd s11, -8(t2)
    sw s0, 0(t4)
    addi t2, t5, 2047
    sh s0, 2047(t2)       # page four's last half-word
    sb s11, 0(t6)
    addi s0, s0, 1
    blt s0, s1, c_loop
    andi a0, s11, 255
    li a7, 93
    ecall
.data
    .align 12
c_buf: .space 20480
`
	ref := diffCkpts(t, src, 997, topAddiSd)
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := exe.Symbols["c_buf"] >> pageBits
	want := fmt.Sprintf("dirty %x", []uint64{base, base + 1, base + 2, base + 3, base + 4})
	for i, c := range ref[1 : len(ref)-1] {
		if !bytes.HasSuffix([]byte(c), []byte(want)) {
			t.Errorf("checkpoint %d: %s, want it to end %q", i+1, c, want)
		}
	}
}

// TestDiffDeviceErrorAfterReentry raises a device error from a device op
// reached after the pass loop was left and re-entered three times in the
// same pass: for a load of an unmapped page (no TLB entry) and for two
// earlier device ops, one of them a signed load.
func TestDiffDeviceErrorAfterReentry(t *testing.T) {
	src := fmt.Sprintf(`
_start:
    li t5, %#x
    li s3, 0x40000000     # unmapped: every load misses the soft TLB
    li s0, 0
    li s1, 3000
    li s5, 1000
    li s11, 0
d_loop:
    andi t0, s0, 255
    slli t0, t0, 12
    add t0, t0, s3
    ld t1, 0(t0)
    add s11, s11, t1
    lbu t2, 5(t5)
    add s11, s11, t2
    lb t2, 6(t5)          # a signed device load
    xor s11, s11, t2
    sb s0, 7(t5)          # faults once t5 has moved
    addi s0, s0, 1
    bne s0, s5, d_next
    li t5, %#x
d_next:
    blt s0, s1, d_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, recBase, recFault-7)
	diffRun(t, src)
	got := tracedLeg(t, src, topDevice)
	if got.err == nil {
		t.Fatal("traced run did not fail")
	}
}

// TestTraceHammocksKeepPatternBranchInTrace holds the pattern-branch
// kernel — a load-dependent branch over one addi, the benchmark's branchy
// shape — to a handful of dispatches with every instruction in a trace:
// its hammock no longer ends the dispatch whichever way it goes.
func TestTraceHammocksKeepPatternBranchInTrace(t *testing.T) {
	src := workgen.Recipe{Name: "pb", Kernels: []workgen.Kernel{
		{Kind: workgen.KPatternBranch, A: 150_000, B: 96, Seed: 1},
	}}.Source()
	diffRun(t, src)
	got := tracedLeg(t, src, topSkip)
	_, hits, _, traced := got.m.TraceStats()
	if hits > 10 {
		t.Errorf("%d dispatches, want at most 10", hits)
	}
	if share := float64(traced) / float64(got.n); share < 0.99 {
		t.Errorf("in-trace share %.3f, want >= 0.99", share)
	}
}

// TestDiffNotHammocks runs forward branches over one instruction that is
// not a plain register-writing ALU op: each stays a guard, and any of them
// compiled as a hammock would diverge.
func TestDiffNotHammocks(t *testing.T) {
	for name, body := range map[string]string{
		"x0":    "addi x0, t0, 5",
		"load":  "ld t1, 0(sp)",
		"store": "sd s0, 0(sp)",
		"jal":   "jal t1, n_join",
		"auipc": "auipc t1, 0",
		"csr":   "rdcycle t1",
		"ecall": "ecall",
	} {
		t.Run(name, func(t *testing.T) {
			diffRun(t, fmt.Sprintf(`
_start:
    li s11, 0
    li s0, 0
    li s1, 2000
    li a7, 0x102
    li a0, 46
n_loop:
    andi t0, s0, 7
    bnez t0, n_join
    %s
n_join:
    add s11, s11, x0
    xor s11, s11, t1
    li t1, 0
    xor s11, s11, s0
    addi s0, s0, 1
    blt s0, s1, n_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, body))
		})
	}
}

// TestDiffSMCEveryWidthInTrace rewrites the loop's first instruction from
// a store inside its own trace, once per store width and through the fused
// addi+sd: the pass loop must leave for every one of them before writing,
// and the write must invalidate the trace it runs in.
func TestDiffSMCEveryWidthInTrace(t *testing.T) {
	// addi s11, s11, 1 becomes addi s11, s11, 2; an sd also rewrites the
	// next word, addi s0, s0, 1, with itself.
	for name, c := range map[string]struct{ val, store string }{
		"sb":      {"0x2d", "sb t3, 2(t1)"},
		"sh":      {"0x002d", "sh t3, 2(t1)"},
		"sw":      {"0x002d8d93", "sw t3, 0(t1)"},
		"sd":      {"0x00140413002d8d93", "sd t3, 0(t1)"},
		"addi+sd": {"0x00140413002d8d93", "addi t4, t1, 8\n    sd t3, -8(t4)"},
	} {
		t.Run(name, func(t *testing.T) {
			diffRun(t, fmt.Sprintf(`
_start:
    li s0, 0
    li s1, 64
    li s11, 0
    la t1, w_site
    li t2, 40
    li t3, %s
w_loop:
w_site:
    addi s11, s11, 1
    addi s0, s0, 1
    bne s0, t2, w_next
    %s
w_next:
    slt t0, s0, s1
    bnez t0, w_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, c.val, c.store))
		})
	}
}

// TestDiffRAMAccessFindsDeviceInTrace runs one loop per kind of load and
// store, plain and fused, whose address is a device's: each is compiled
// first as a RAM access, which must leave the trace before it retires any
// of the op, and once learned as a device op, which must reach the device
// exactly as the reference loop does.
func TestDiffRAMAccessFindsDeviceInTrace(t *testing.T) {
	for name, access := range map[string]string{
		"ld":      "ld t2, 8(t5)",
		"lw":      "lw t2, 8(t5)",
		"lwu":     "lwu t2, 8(t5)",
		"lh":      "lh t2, 8(t5)",
		"lhu":     "lhu t2, 8(t5)",
		"lb":      "lb t2, 8(t5)",
		"lbu":     "lbu t2, 8(t5)",
		"sd":      "sd s0, 8(t5)",
		"sw":      "sw s0, 8(t5)",
		"sh":      "sh s0, 8(t5)",
		"sb":      "sb s0, 8(t5)",
		"addi+ld": "addi t4, t5, 4\n    ld t2, 4(t4)",
		"addi+sd": "addi t4, t5, 4\n    sd s0, 4(t4)",
	} {
		t.Run(name, func(t *testing.T) {
			diffRun(t, fmt.Sprintf(`
_start:
    li t5, %#x
    li s0, 0
    li s1, 1000
    li s11, 0
    li t2, 0
a_loop:
    %s
    xor s11, s11, t2
    addi s0, s0, 1
    blt s0, s1, a_loop
    andi a0, s11, 255
    li a7, 93
    ecall
`, recBase, access))
		})
	}
}
