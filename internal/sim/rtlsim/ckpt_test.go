package rtlsim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/bpred"
)

const ckptProgShort = `
_start:
    li a0, 42
    li a7, 0x101
    ecall
    li a0, 3
    li a7, 93
    ecall
`

// ckptProgMixed is a store/load/multiply loop of 9 instructions per
// iteration.
func ckptProgMixed(iters int) string {
	return fmt.Sprintf(`
_start:
    li s0, %d
    li s1, 0
    li s2, 0x100000
outer:
    andi t0, s0, 255
    slli t1, t0, 3
    add  t2, s2, t1
    sd   s1, 0(t2)
    ld   t3, 0(t2)
    add  s1, s1, t3
    mul  s1, s1, s0
    addi s0, s0, -1
    bnez s0, outer
    mv a0, s1
    li a7, 0x101
    ecall
    li a0, 7
    li a7, 93
    ecall
`, iters)
}

// ckptProgBranchy steers three data-dependent branches per iteration from
// an LCG, so the predictor keeps mispredicting, allocating and ageing:
// about 15 instructions per iteration.
func ckptProgBranchy(iters int) string {
	return fmt.Sprintf(`
_start:
    li s0, %d
    li s1, 12345
    li s2, 1103515245
    li s3, 0
loop:
    mul  s1, s1, s2
    addi s1, s1, 1237
    srli t0, s1, 16
    andi t1, t0, 1
    beqz t1, b1
    addi s3, s3, 1
b1: andi t1, t0, 2
    beqz t1, b2
    addi s3, s3, 3
b2: andi t1, t0, 12
    bnez t1, b3
    xori s3, s3, 5
b3: addi s0, s0, -1
    bnez s0, loop
    mv a0, s3
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`, iters)
}

// ckptProgSequential runs 100 straight-line instructions (7 I-cache
// lines) per iteration: nearly every fetch repeats the previous line.
func ckptProgSequential(iters int) string {
	return fmt.Sprintf(`
_start:
    li s0, %d
    li t0, 0
loop:
%s    addi s0, s0, -1
    bnez s0, loop
    mv a0, t0
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`, iters, strings.Repeat("    addi t0, t0, 3\n", 100))
}

// ckptRun is one attempt's configuration: which long program follows the
// short one, how often to snapshot, where the simulated crash strikes (0:
// run to completion), whether a small, fast-ageing TAGE replaces the
// default one, and the loops that drive the straight, the crashed and the
// resumed attempt (nil: Exec's own).
type ckptRun struct {
	long      string
	every     uint64
	maxInstrs uint64
	smallTage bool
	loops     [3]timedLoop
}

// ckptAttempt drives the two execs of a simulated node through one
// platform, mimicking how guestos issues Platform.Exec calls. maxInstrs
// bounds each exec so a small value kills the long exec mid-flight after
// several snapshots — the deterministic stand-in for a host crash.
func ckptAttempt(t *testing.T, store *cas.Store, ptrDir string, resume bool, run ckptRun, loop timedLoop) (*Platform, []*sim.ExecResult, string, bool) {
	t.Helper()
	rt, err := checkpoint.Open(checkpoint.Config{Store: store, Dir: ptrDir, Job: "node0", Every: run.every}, resume)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ckpt = rt
	cfg.MaxInstrs = run.maxInstrs
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.smallTage {
		pred, err := bpred.NewTage(bpred.TageConfig{BaseBits: 6, TableBits: 5, TagBits: 7, HistLengths: []uint{3, 9, 27}})
		if err != nil {
			t.Fatal(err)
		}
		p.SetPredictor(pred)
	}

	var console bytes.Buffer
	var results []*sim.ExecResult
	for _, src := range []string{ckptProgShort, run.long} {
		exe, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var res *sim.ExecResult
		if loop == nil {
			res, err = p.Exec(exe, &console, "prog")
		} else {
			res, err = execOn(p, loop, &recorder{}, exe, &console, "prog")
		}
		if err != nil {
			// The bounded attempt dying mid-exec is the simulated crash.
			return p, results, console.String(), true
		}
		results = append(results, res)
	}
	return p, results, console.String(), false
}

// TestCrashResumeCycleExact is the cycle-exact half of the tentpole's
// determinism gate: a node killed mid-exec (after a completed exec and
// several checkpoints) and resumed produces bit-identical per-exec cycle
// counts, timing statistics, and console output — at snapshot intervals
// on and off the 4096-instruction batch, on programs that lean on each
// piece of derived timing state (the I-cache same-line memo, the D-cache,
// TAGE's lazily aged usefulness), and with every snapshot restored into
// a fresh platform.
func TestCrashResumeCycleExact(t *testing.T) {
	cases := []struct {
		name    string
		long    func(iters int) string
		perIter uint64 // instructions per iteration, roughly
		small   bool
	}{
		{"mixed", ckptProgMixed, 9, false},
		{"branchy", ckptProgBranchy, 15, false},
		{"branchy-small-tage", ckptProgBranchy, 15, true},
		{"sequential", ckptProgSequential, 102, false},
	}
	for _, every := range []uint64{1, 1000, 4095, 10007} {
		for _, tc := range cases {
			// The crash lands two and a half intervals in, the program
			// ends after four; every=1 snapshots per instruction, so it
			// gets about a hundred instructions instead.
			span := every
			if every == 1 {
				span = 24
			}
			iters := int(4*span/tc.perIter) + 1
			run := ckptRun{long: tc.long(iters), every: every, smallTage: tc.small}
			t.Run(fmt.Sprintf("every=%d/%s", every, tc.name), func(t *testing.T) {
				crashResume(t, run, 5*span/2)
			})
		}
	}
}

func crashResume(t *testing.T, run ckptRun, crashAt uint64) {
	dir := t.TempDir()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	ptrDir := filepath.Join(dir, "ckpt")

	// Uninterrupted reference run (its own pointer dir).
	straightP, straightRes, straightConsole, crashed := ckptAttempt(t, store, filepath.Join(dir, "ref-ckpt"), false, run, run.loops[0])
	if crashed || len(straightRes) != 2 {
		t.Fatalf("reference run did not complete: %d execs", len(straightRes))
	}
	if straightRes[1].Instrs <= crashAt {
		t.Fatalf("long exec retires %d instructions, crash point %d is past its end", straightRes[1].Instrs, crashAt)
	}

	// Crashed attempt: exec0 completes, exec1 dies at crashAt instructions
	// with at least two checkpoints behind it.
	crash := run
	crash.maxInstrs = crashAt
	_, partial, _, crashed := ckptAttempt(t, store, ptrDir, false, crash, run.loops[1])
	if !crashed || len(partial) != 1 {
		t.Fatalf("bounded attempt: crashed=%v after %d execs, want crash after 1", crashed, len(partial))
	}
	ptr, err := checkpoint.LoadPointer(checkpoint.PointerPath(ptrDir, "node0"))
	if err != nil {
		t.Fatalf("no checkpoint pointer after crash: %v", err)
	}
	if ptr.Exec != 1 {
		t.Fatalf("pointer targets exec %d, want 1", ptr.Exec)
	}

	// Resume: exec0 replays, exec1 restores and finishes.
	resumedP, resumedRes, resumedConsole, crashed := ckptAttempt(t, store, ptrDir, true, run, run.loops[2])
	if crashed || len(resumedRes) != 2 {
		t.Fatalf("resumed run did not complete: %d execs", len(resumedRes))
	}

	for i := range straightRes {
		if *resumedRes[i] != *straightRes[i] {
			t.Errorf("exec %d: resumed %+v, straight %+v", i, *resumedRes[i], *straightRes[i])
		}
	}
	if resumedP.Cycles() != straightP.Cycles() {
		t.Errorf("platform cycles %d, want %d", resumedP.Cycles(), straightP.Cycles())
	}
	// Stats is a comparable struct: this is all ten fields.
	if resumedP.Stats() != straightP.Stats() {
		t.Errorf("timing stats diverge:\nresumed  %+v\nstraight %+v", resumedP.Stats(), straightP.Stats())
	}
	if resumedConsole != straightConsole {
		t.Errorf("console = %q, want %q", resumedConsole, straightConsole)
	}
}
