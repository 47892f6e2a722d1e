package rtlsim

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/funcsim"
)

func build(t *testing.T, src string) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

const sumProgram = `
_start:
    li t0, 0
    li t1, 1
    li t2, 10001
loop:
    add t0, t0, t1
    addi t1, t1, 1
    bne t1, t2, loop
    mv a0, t0
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`

func TestExecMatchesFunctional(t *testing.T) {
	exe := build(t, sumProgram)
	rtl, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rtlOut, funcOut bytes.Buffer
	rtlRes, err := rtl.Exec(exe, &rtlOut)
	if err != nil {
		t.Fatal(err)
	}
	fp := funcsim.New(funcsim.Config{})
	funcRes, err := fp.Exec(exe, &funcOut)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core guarantee: identical artifacts produce identical
	// functional behaviour on both simulators.
	if rtlOut.String() != funcOut.String() {
		t.Errorf("console differs: rtl=%q func=%q", rtlOut.String(), funcOut.String())
	}
	if rtlRes.Exit != funcRes.Exit || rtlRes.Instrs != funcRes.Instrs {
		t.Errorf("results differ: rtl=%+v func=%+v", rtlRes, funcRes)
	}
	if !strings.Contains(rtlOut.String(), "50005000") {
		t.Errorf("wrong sum: %q", rtlOut.String())
	}
	// Cycle-exact run must cost more cycles than instructions.
	if rtlRes.Cycles <= rtlRes.Instrs {
		t.Errorf("cycles (%d) should exceed instrs (%d)", rtlRes.Cycles, rtlRes.Instrs)
	}
}

func TestDeterministicCycles(t *testing.T) {
	exe := build(t, sumProgram)
	run := func() uint64 {
		p, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c2, c3 := run(), run(), run()
	if c1 != c2 || c2 != c3 {
		t.Errorf("cycle counts differ across runs: %d %d %d", c1, c2, c3)
	}
}

func TestBranchPredictorAffectsCycles(t *testing.T) {
	// A branch pattern with period 64 (random-ish), diluted by an inner
	// always-taken loop: TAGE should finish in fewer cycles than bimodal.
	src := `
_start:
    li s0, 0          # i
    li s1, 20000      # iterations
    la s2, pattern
outer:
    andi t0, s0, 63
    add t1, s2, t0
    lbu t2, 0(t1)
    beqz t2, skip     # the hard-to-predict branch
    addi s3, s3, 1
skip:
    addi s0, s0, 1
    blt s0, s1, outer
    li a0, 0
    li a7, 93
    ecall
.data
pattern:
    .byte 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1
    .byte 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0
    .byte 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0
    .byte 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1
`
	exe := build(t, src)
	cycles := map[string]uint64{}
	for _, predName := range []string{"bimodal", "gshare", "tage"} {
		cfg := DefaultConfig()
		cfg.Predictor = predName
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		cycles[predName] = res.Cycles
		st := p.Stats()
		if st.Branches == 0 {
			t.Fatal("no branches counted")
		}
	}
	if cycles["tage"] >= cycles["bimodal"] {
		t.Errorf("tage (%d cycles) should beat bimodal (%d cycles)", cycles["tage"], cycles["bimodal"])
	}
}

func TestCacheMissesCostCycles(t *testing.T) {
	// Streaming over a large array (strided by a full line) thrashes the
	// 16KiB D$; the same count of cache-friendly accesses is much cheaper.
	mkSrc := func(stride int) string {
		return `
_start:
    li s0, 0
    li s1, 8192       # accesses
    la s2, buf
    li s3, ` + strconv.Itoa(stride) + `
    mv t1, s2
loop:
    ld t0, 0(t1)
    add t1, t1, s3
    li t2, 524288
    blt t1, t2, noreset
    mv t1, s2
noreset:
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 8
`
	}
	run := func(src string) (uint64, Stats) {
		exe := build(t, src)
		p, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, p.Stats()
	}
	hot, hotStats := run(mkSrc(0))    // same address every time
	cold, coldStats := run(mkSrc(64)) // new line every time
	if cold <= hot {
		t.Errorf("cold-stride run (%d) should cost more than hot run (%d)", cold, hot)
	}
	if coldStats.DCacheMisses <= hotStats.DCacheMisses {
		t.Errorf("miss counts: cold=%d hot=%d", coldStats.DCacheMisses, hotStats.DCacheMisses)
	}
}

func TestMMIOCharged(t *testing.T) {
	src := `
.equ UART, 0x54000000
_start:
    li t0, UART
    li t1, 'x'
    sb t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
`
	exe := build(t, src)
	p, _ := New(DefaultConfig())
	var out bytes.Buffer
	if _, err := p.Exec(exe, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "x" {
		t.Errorf("uart output %q", out.String())
	}
	if p.Stats().MMIOAccesses != 1 {
		t.Errorf("MMIO accesses = %d", p.Stats().MMIOAccesses)
	}
}

func TestMulDivLatency(t *testing.T) {
	mk := func(op string) uint64 {
		src := "_start:\n"
		for i := 0; i < 100; i++ {
			src += "    " + op + " t0, t1, t2\n"
		}
		src += "    li a0, 0\n    li a7, 93\n    ecall\n"
		exe := build(t, src)
		p, _ := New(DefaultConfig())
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	addC, mulC, divC := mk("add"), mk("mul"), mk("div")
	if !(divC > mulC && mulC > addC) {
		t.Errorf("latency ordering violated: add=%d mul=%d div=%d", addC, mulC, divC)
	}
}

func TestStatsAccumulateAcrossExecs(t *testing.T) {
	exe := build(t, "_start:\n    li a0, 0\n    li a7, 93\n    ecall\n")
	p, _ := New(DefaultConfig())
	p.Exec(exe, io.Discard)
	first := p.Stats().Instrs
	p.Exec(exe, io.Discard)
	if p.Stats().Instrs != 2*first {
		t.Errorf("stats did not accumulate: %d then %d", first, p.Stats().Instrs)
	}
	if p.Cycles() == 0 {
		t.Error("platform clock did not advance")
	}
}

func TestRdcycleSeesPlatformClock(t *testing.T) {
	src := `
_start:
    rdcycle a0
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`
	exe := build(t, src)
	p, _ := New(DefaultConfig())
	p.Charge(5000) // modeled boot overhead before user code
	var out bytes.Buffer
	p.Exec(exe, &out)
	v, err := strconv.Atoi(strings.TrimSpace(out.String()))
	if err != nil || v < 5000 {
		t.Errorf("rdcycle = %q, want >= 5000", out.String())
	}
}

func TestBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "oracle"
	if _, err := New(cfg); err == nil {
		t.Error("expected error for unknown predictor")
	}
	cfg = DefaultConfig()
	cfg.ICache.LineBytes = 48
	if _, err := New(cfg); err == nil {
		t.Error("expected error for bad cache config")
	}
}

func TestIPCAndMispredictRate(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 {
		t.Error("zero stats should not divide by zero")
	}
	s = Stats{Cycles: 200, Instrs: 100, Branches: 50, Mispredicts: 5}
	if s.IPC() != 0.5 {
		t.Errorf("IPC = %f", s.IPC())
	}
	if s.MispredictRate() != 0.1 {
		t.Errorf("mispredict rate = %f", s.MispredictRate())
	}
}

func TestSecondsAt(t *testing.T) {
	p, _ := New(DefaultConfig())
	if got := p.SecondsAt(1_000_000_000); got != 1.0 {
		t.Errorf("1G cycles at 1GHz = %f s", got)
	}
}

// Device returning extra stall cycles must lengthen execution.
type stallDevice struct{ stall uint64 }

func (d *stallDevice) Name() string                { return "stall" }
func (d *stallDevice) AddrRange() (uint64, uint64) { return 0x60000000, 0x60001000 }
func (d *stallDevice) Load(m *sim.Machine, a uint64, s int) (uint64, uint64, error) {
	return 0, d.stall, nil
}
func (d *stallDevice) Store(m *sim.Machine, a uint64, s int, v uint64) (uint64, error) {
	return d.stall, nil
}

func TestDeviceStallCycles(t *testing.T) {
	src := `
_start:
    li t0, 0x60000000
    ld t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
`
	exe := build(t, src)
	run := func(stall uint64) uint64 {
		p, _ := New(DefaultConfig())
		p.AddDevice(&stallDevice{stall: stall})
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fast, slow := run(0), run(1000)
	if slow-fast != 1000 {
		t.Errorf("stall cycles not charged exactly: fast=%d slow=%d", fast, slow)
	}
}

// Property: for random straight-line programs, functional and cycle-exact
// execution retire the same instructions with identical outputs, and the
// cycle count is never below the instruction count.
func TestQuickRandomProgramsEquivalent(t *testing.T) {
	mnems := []string{
		"add", "sub", "and", "or", "xor", "sll", "srl", "sra",
		"mul", "mulh", "div", "rem", "slt", "sltu",
		"addw", "subw", "mulw", "divw", "remw", "sllw", "srlw", "sraw",
	}
	regs := []string{"t0", "t1", "t2", "t3", "s2", "s3", "s4"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		var src strings.Builder
		src.WriteString("_start:\n")
		for i, r := range regs {
			fmt.Fprintf(&src, "    li %s, %d\n", r, rng.Int63n(1<<40)-(1<<39)+int64(i))
		}
		n := rng.Intn(200) + 20
		for i := 0; i < n; i++ {
			m := mnems[rng.Intn(len(mnems))]
			rd := regs[rng.Intn(len(regs))]
			rs1 := regs[rng.Intn(len(regs))]
			rs2 := regs[rng.Intn(len(regs))]
			fmt.Fprintf(&src, "    %s %s, %s, %s\n", m, rd, rs1, rs2)
		}
		// Print a digest of the register state and exit.
		src.WriteString("    xor a0, t0, t1\n    xor a0, a0, t2\n    xor a0, a0, s2\n")
		src.WriteString("    li a7, 0x101\n    ecall\n    li a0, 0\n    li a7, 93\n    ecall\n")

		exe := build(t, src.String())
		var fOut, rOut bytes.Buffer
		fp := funcsim.New(funcsim.Config{})
		fRes, err := fp.Exec(exe, &fOut)
		if err != nil {
			t.Fatalf("trial %d functional: %v", trial, err)
		}
		rp, _ := New(DefaultConfig())
		rRes, err := rp.Exec(exe, &rOut)
		if err != nil {
			t.Fatalf("trial %d rtl: %v", trial, err)
		}
		if fOut.String() != rOut.String() {
			t.Fatalf("trial %d outputs differ: %q vs %q\nprogram:\n%s", trial, fOut.String(), rOut.String(), src.String())
		}
		if fRes.Instrs != rRes.Instrs {
			t.Fatalf("trial %d instr counts differ: %d vs %d", trial, fRes.Instrs, rRes.Instrs)
		}
		if rRes.Cycles < rRes.Instrs {
			t.Fatalf("trial %d: cycles (%d) below instrs (%d)", trial, rRes.Cycles, rRes.Instrs)
		}
	}
}

// TestExecAllocsIndependentOfLength: the retire loop allocates nothing, so
// an Exec's allocations are its set-up (machine, decode tables, console)
// and do not grow with the number of instructions retired.
func TestExecAllocsIndependentOfLength(t *testing.T) {
	prog := func(iters int) *isa.Executable {
		return build(t, fmt.Sprintf(`
_start:
    li s0, %d
    li s2, 0x100000
loop:
    andi t0, s0, 1023
    slli t0, t0, 3
    add  t1, s2, t0
    sd   s0, 0(t1)
    ld   t2, 0(t1)
    andi t3, s0, 5
    beqz t3, skip
    mul  s1, s1, t2
skip:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`, iters))
	}
	allocs := func(exe *isa.Executable) float64 {
		p, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := p.Exec(exe, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(prog(100)), allocs(prog(100_000)) // ~1k and ~1M instructions
	if short > 64 {
		t.Errorf("a 1k-instruction Exec allocates %.0f times, want a small constant", short)
	}
	if long > short+2 {
		t.Errorf("a 1M-instruction Exec allocates %.0f times, a 1k-instruction one %.0f: allocation grows with length", long, short)
	}
}
