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

// recBase is where the recording test device sits; a load or store at
// recFault makes it fail.
const (
	recBase  = 0x55000000
	recFault = recBase + 0x38
)

// devAccess is one access the recording device saw, with the machine
// state a device is shown at the access.
type devAccess struct {
	PC, Instret, Now, Addr uint64
	Size                   int
	Val                    uint64
	Store                  bool
}

// recDev is a test device that logs every access. A load returns a value
// derived from the published Instret, so a wrong count changes what the
// guest computes, not only the log.
type recDev struct{ log []devAccess }

func (d *recDev) Name() string                { return "rec0" }
func (d *recDev) AddrRange() (uint64, uint64) { return recBase, recBase + 0x40 }

func (d *recDev) Load(m *Machine, addr uint64, size int) (uint64, uint64, error) {
	v := m.Instret*0x9e3779b1 ^ addr
	d.log = append(d.log, devAccess{m.PC, m.Instret, m.Now, addr, size, v, false})
	if addr == recFault {
		return 0, 0, fmt.Errorf("rec0: load fault at %#x", addr)
	}
	return v, 0, nil
}

func (d *recDev) Store(m *Machine, addr uint64, size int, val uint64) (uint64, error) {
	d.log = append(d.log, devAccess{m.PC, m.Instret, m.Now, addr, size, val, true})
	if addr == recFault {
		return 0, fmt.Errorf("rec0: store fault at %#x", addr)
	}
	return 0, nil
}

// legResult is everything a run leg leaves behind that another leg must
// reproduce.
type legResult struct {
	m       *Machine
	n       uint64
	err     error
	console []byte
	log     []devAccess
}

// runLeg executes exe on a fresh machine with a UART and the recording
// device, through run.
func runLeg(exe *isa.Executable, run func(*Machine) (uint64, error), traceOff bool) legResult {
	m := NewMachine()
	var console bytes.Buffer
	dev := &recDev{}
	m.Console = &console
	m.SyscallFn = BareSyscalls()
	m.Devices = []Device{&UART{}, dev}
	m.MaxInstrs = 50_000_000
	m.TraceOff = traceOff
	m.LoadExecutable(exe, DefaultStackTop)
	n, err := run(m)
	return legResult{m: m, n: n, err: err, console: console.Bytes(), log: dev.log}
}

// diffRun executes src on three fresh machines — the reference StepInto
// loop, the predecoded fast loop with the trace tier off, and the fast
// loop with traces — and asserts all three end in bit-identical
// architectural state with identical errors, console output, exit code,
// retired-instruction / cycle counts and device-access logs (each access
// with the PC, Instret and Now the device saw). This is the harness that
// locks "fast ≡ traced ≡ reference": any divergence in either fast
// executor is a test failure, not a silent mis-simulation.
func diffRun(t testing.TB, src string) {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ref := runLeg(exe, RunReference, false)
	for _, leg := range []struct {
		name     string
		traceOff bool
	}{{"fast", true}, {"traced", false}} {
		// RunFunctional takes the fast loop because runLeg installs no
		// hook, trace writer or tamper function.
		got := runLeg(exe, RunFunctional, leg.traceOff)
		if fmt.Sprint(ref.err) != fmt.Sprint(got.err) {
			t.Fatalf("error divergence: reference=%v %s=%v", ref.err, leg.name, got.err)
		}
		if ref.n != got.n {
			t.Errorf("retired count divergence: reference=%d %s=%d", ref.n, leg.name, got.n)
		}
		if ref.m.Now != got.m.Now {
			t.Errorf("Now divergence: reference=%d %s=%d", ref.m.Now, leg.name, got.m.Now)
		}
		if ref.m.ExitCode != got.m.ExitCode || ref.m.Halted != got.m.Halted {
			t.Errorf("exit divergence: reference=%v/%d %s=%v/%d",
				ref.m.Halted, ref.m.ExitCode, leg.name, got.m.Halted, got.m.ExitCode)
		}
		if rs, gs := ref.m.Snap(), got.m.Snap(); rs != gs {
			t.Errorf("snapshot divergence:\n  reference: %+v\n  %s: %+v", rs, leg.name, gs)
		}
		if !bytes.Equal(ref.console, got.console) {
			t.Errorf("console divergence:\n  reference: %q\n  %s: %q", ref.console, leg.name, got.console)
		}
		if !slices.Equal(ref.log, got.log) {
			i := 0
			for i < len(ref.log) && i < len(got.log) && ref.log[i] == got.log[i] {
				i++
			}
			t.Errorf("device log divergence at access %d of %d/%d (reference/%s)", i, len(ref.log), len(got.log), leg.name)
			if i < len(ref.log) && i < len(got.log) {
				t.Errorf("  reference: %+v\n  %s: %+v", ref.log[i], leg.name, got.log[i])
			}
		}
	}
}

// TestDiffIntSpeedSuite runs every generated intspeed benchmark (test
// dataset) through both interpreter paths.
func TestDiffIntSpeedSuite(t *testing.T) {
	for _, b := range workgen.IntSpeedSuite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			diffRun(t, b.Source("test"))
		})
	}
}

// TestDiffRandomPrograms covers the kernel library with a spread of
// deterministic fuzz seeds.
func TestDiffRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		diffRun(t, workgen.RandomSource(seed))
	}
}

// TestDiffEdgeCases pins hand-written corners the generated kernels miss:
// misaligned-width stores into the code-adjacent data, division and shift
// edge values, and large-immediate addressing that forces packUop's
// slow-path fallback.
func TestDiffEdgeCases(t *testing.T) {
	cases := map[string]string{
		"div-edges": `
_start:
    li t0, -9223372036854775808
    li t1, -1
    div t2, t0, t1        # overflow case: result = t0
    rem t3, t0, t1        # overflow case: result = 0
    li t4, 7
    li t5, 0
    div s0, t4, t5        # div by zero: -1
    rem s1, t4, t5        # rem by zero: t4
    divu s2, t4, t5
    add a0, t2, t3
    add a0, a0, s0
    add a0, a0, s1
    add a0, a0, s2
    andi a0, a0, 255
    li a7, 93
    ecall
`,
		"shift-words": `
_start:
    li t0, 0x80000001
    sllw t1, t0, t0       # shamt masked to 5 bits
    srlw t2, t0, t0
    sraw t3, t0, t0
    li t4, 63
    sll t5, t0, t4
    srl s0, t0, t4
    sra s1, t0, t4
    add a0, t1, t2
    add a0, a0, t3
    add a0, a0, t5
    add a0, a0, s0
    add a0, a0, s1
    andi a0, a0, 255
    li a7, 93
    ecall
`,
		"x0-writes": `
_start:
    li t0, 5
    add x0, t0, t0        # writes to x0 must be discarded
    addi x0, x0, 99
    ld x0, 0(sp)
    mv a0, x0
    li a7, 93
    ecall
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { diffRun(t, src) })
	}
}

// FuzzFastVsReference is the differential fuzz target: seeds index into
// workgen's deterministic random-program generator, so every input is a
// valid mixed-kernel guest program. The property under fuzz is total
// equivalence of the fast loop and the reference StepInto loop.
func FuzzFastVsReference(f *testing.F) {
	// The later seeds are chosen to draw the loop-heavy kernel, so the
	// corpus exercises trace compilation and macro-op fusion too.
	for _, seed := range []int64{0, 1, 7, 42, 1337, 0xdead, 1 << 40, 0x77ace, 0xbeef, 99, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffRun(t, workgen.RandomSource(seed))
	})
}
