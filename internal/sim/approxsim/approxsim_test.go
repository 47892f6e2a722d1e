package approxsim

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

func build(t *testing.T, src string) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

const mixedProgram = `
_start:
    li s0, 0
    li s1, 20000
    la s2, buf
loop:
    andi t0, s0, 63
    slli t0, t0, 3
    add t1, s2, t0
    ld t2, 0(t1)
    add t2, t2, s0
    sd t2, 0(t1)
    mul t3, t2, s0
    andi t4, s0, 7
    beqz t4, skip
    addi s3, s3, 1
skip:
    addi s0, s0, 1
    blt s0, s1, loop
    mv a0, s3
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 512
`

func TestFunctionalEquivalence(t *testing.T) {
	exe := build(t, mixedProgram)
	var aOut, fOut bytes.Buffer
	ap := New(DefaultConfig())
	aRes, err := ap.Exec(exe, &aOut)
	if err != nil {
		t.Fatal(err)
	}
	fp := funcsim.New(funcsim.Config{})
	fRes, err := fp.Exec(exe, &fOut)
	if err != nil {
		t.Fatal(err)
	}
	if aOut.String() != fOut.String() || aRes.Exit != fRes.Exit || aRes.Instrs != fRes.Instrs {
		t.Errorf("approx platform changed functional behaviour")
	}
}

func TestTimingBetweenFunctionalAndExact(t *testing.T) {
	// The spectrum property (§II-A.2): approximate CPI sits well above the
	// functional platform's 1.0 and within a modest error of cycle-exact.
	exe := build(t, mixedProgram)
	ap := New(DefaultConfig())
	aRes, err := ap.Exec(exe, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := rtlsim.New(rtlsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := rp.Exec(exe, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if aRes.Cycles <= aRes.Instrs {
		t.Errorf("approx CPI should exceed 1.0: %d cycles / %d instrs", aRes.Cycles, aRes.Instrs)
	}
	ratio := float64(aRes.Cycles) / float64(rRes.Cycles)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("approx estimate %d vs exact %d (ratio %.2f) outside 2x band", aRes.Cycles, rRes.Cycles, ratio)
	}
}

func TestDeterministic(t *testing.T) {
	exe := build(t, mixedProgram)
	run := func() uint64 {
		p := New(DefaultConfig())
		res, err := p.Exec(exe, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if run() != run() {
		t.Error("approximate timing must still be deterministic")
	}
}

func TestInstructionClassCosts(t *testing.T) {
	cost := func(op string) uint64 {
		src := "_start:\n"
		for i := 0; i < 100; i++ {
			src += "    " + op + "\n"
		}
		src += "    li a0, 0\n    li a7, 93\n    ecall\n"
		p := New(DefaultConfig())
		res, err := p.Exec(build(t, src), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	add := cost("add t0, t1, t2")
	mul := cost("mul t0, t1, t2")
	div := cost("div t0, t1, t2")
	if !(div > mul && mul > add) {
		t.Errorf("class cost ordering violated: add=%d mul=%d div=%d", add, mul, div)
	}
}

func TestFractionalCPIAccumulates(t *testing.T) {
	// Load CPI is 2.5: 4 loads must cost exactly 10 cycles' worth beyond
	// integer truncation drift.
	src := `
_start:
    la t1, buf
    ld t0, 0(t1)
    ld t0, 0(t1)
    ld t0, 0(t1)
    ld t0, 0(t1)
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 8
`
	p := New(DefaultConfig())
	res, err := p.Exec(build(t, src), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// 2 li for la (auipc+addi @1.0) + 4 ld @2.5 + 2 li @1.0 + ecall(1+31)
	want := uint64(2 + 10 + 2 + 32)
	if res.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Cycles, want)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	p := New(Config{})
	res, err := p.Exec(build(t, "_start:\n    li a0, 0\n    li a7, 93\n    ecall\n"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("zero config should default to a usable CPI")
	}
	if p.Name() != "gem5-approx" || p.CycleExact() {
		t.Error("identity wrong")
	}
}

// TestExecMatchesReferenceLoop: Exec charges the CPI model from the
// predecoded loop; the same programs retired through RunBatch/StepInto
// alone must end with the same result, clock and console.
func TestExecMatchesReferenceLoop(t *testing.T) {
	srcs := map[string]string{"mixed": mixedProgram}
	for _, b := range workgen.IntSpeedSuite() {
		srcs[b.Name] = b.Source("test")
	}
	for seed := int64(0); seed < 4; seed++ {
		srcs[fmt.Sprintf("random-%d", seed)] = workgen.RandomSource(seed)
	}
	for name, src := range srcs {
		exe := build(t, src)
		fast, ref := New(DefaultConfig()), New(DefaultConfig())
		var fastOut, refOut bytes.Buffer
		fastRes, err := fast.Exec(exe, &fastOut)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refRes, err := ref.Run(exe, &refOut, nil, nil, func(m *sim.Machine) (uint64, error) {
			for !m.Halted {
				if _, err := m.RunBatch(4096, ref.charge); err != nil {
					return 0, err
				}
			}
			return m.Instret, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *fastRes != *refRes || fast.Cycles() != ref.Cycles() || fastOut.String() != refOut.String() {
			t.Errorf("%s: Exec %+v (clock %d, %q), reference loop %+v (clock %d, %q)", name,
				*fastRes, fast.Cycles(), fastOut.String(), *refRes, ref.Cycles(), refOut.String())
		}
	}
}
