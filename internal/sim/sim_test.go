package sim

import (
	"bytes"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"firemarshal/internal/asm"
)

// run assembles and executes src bare-metal, returning console output and
// the exit code.
func run(t *testing.T, src string) (string, int64) {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine()
	var console bytes.Buffer
	m.Console = &console
	m.SyscallFn = BareSyscalls()
	m.Devices = []Device{&UART{}}
	m.MaxInstrs = 10_000_000
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := RunFunctional(m); err != nil {
		t.Fatalf("run: %v\nconsole: %s", err, console.String())
	}
	return console.String(), m.ExitCode
}

func TestExitCode(t *testing.T) {
	_, code := run(t, `
_start:
    li a0, 42
    li a7, 93
    ecall
`)
	if code != 42 {
		t.Errorf("exit code = %d", code)
	}
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	_, code := run(t, `
_start:
    li t0, 0      # sum
    li t1, 1      # i
    li t2, 101
loop:
    add t0, t0, t1
    addi t1, t1, 1
    bne t1, t2, loop
    mv a0, t0
    li a7, 93
    ecall
`)
	if code != 5050 {
		t.Errorf("sum = %d, want 5050", code)
	}
}

func TestConsoleWrite(t *testing.T) {
	out, _ := run(t, `
_start:
    la a1, msg
    li a2, 13
    li a0, 1
    li a7, 64
    ecall
    li a0, 0
    li a7, 93
    ecall
.data
msg: .ascii "hello, world\n"
`)
	if out != "hello, world\n" {
		t.Errorf("console = %q", out)
	}
}

func TestPutInt(t *testing.T) {
	out, _ := run(t, `
_start:
    li a0, -12345
    li a7, 0x101
    ecall
    li a0, 10
    li a7, 0x102
    ecall
    li a0, 0
    li a7, 93
    ecall
`)
	if out != "-12345\n" {
		t.Errorf("out = %q", out)
	}
}

func TestUARTMMIO(t *testing.T) {
	out, _ := run(t, `
.equ UART, 0x54000000
_start:
    li t0, UART
    li t1, 'H'
    sb t1, 0(t0)
    li t1, 'i'
    sb t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
`)
	if out != "Hi" {
		t.Errorf("uart out = %q", out)
	}
}

func TestMemoryOps(t *testing.T) {
	_, code := run(t, `
_start:
    la t0, buf
    li t1, 0x1122334455667788
    sd t1, 0(t0)
    lw t2, 0(t0)      # sign-extended low word 0x55667788
    lwu t3, 4(t0)     # high word 0x11223344
    lb t4, 7(t0)      # 0x11
    lbu t5, 3(t0)     # 0x55
    lh t6, 2(t0)      # 0x5566 positive; bytes 2-3 are 0x66,0x55 -> 0x5566
    # a0 = t3 + t4 + t5 = 0x11223344 + 0x11 + 0x55 = 0x112233aa
    add a0, t3, t4
    add a0, a0, t5
    li t1, 0x112233aa
    bne a0, t1, fail
    li t1, 0x55667788
    bne t2, t1, fail
    li t1, 0x5566
    bne t6, t1, fail
    # negative halfword sign extension
    li t1, 0x8001
    sh t1, 8(t0)
    lh t1, 8(t0)
    li t2, -32767
    bne t1, t2, fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
.data
buf: .space 16
`)
	if code != 0 {
		t.Errorf("memory ops failed (exit %d)", code)
	}
}

func TestUnalignedAccess(t *testing.T) {
	_, code := run(t, `
_start:
    la t0, buf
    li t1, 0xdeadbeefcafebabe
    sd t1, 3(t0)      # unaligned store
    ld t2, 3(t0)
    bne t1, t2, fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
.data
buf: .space 32
`)
	if code != 0 {
		t.Error("unaligned access round trip failed")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := NewMachine()
	m.Mem.Write(0xffe, 8, 0x1122334455667788)
	if got := m.Mem.Read(0xffe, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestFunctionCall(t *testing.T) {
	_, code := run(t, `
_start:
    li sp, 0x8000000
    li a0, 10
    call fib
    li a7, 93
    ecall

# fib(n) iterative
fib:
    li t0, 0
    li t1, 1
    beqz a0, fib_zero
floop:
    add t2, t0, t1
    mv t0, t1
    mv t1, t2
    addi a0, a0, -1
    bnez a0, floop
    mv a0, t0
    ret
fib_zero:
    li a0, 0
    ret
`)
	if code != 55 {
		t.Errorf("fib(10) = %d, want 55", code)
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	_, code := run(t, `
_start:
    # div by zero -> -1
    li t0, 7
    li t1, 0
    div t2, t0, t1
    li t3, -1
    bne t2, t3, fail
    # rem by zero -> dividend
    rem t2, t0, t1
    bne t2, t0, fail
    # overflow: INT64_MIN / -1 -> INT64_MIN
    li t0, -0x8000000000000000
    li t1, -1
    div t2, t0, t1
    bne t2, t0, fail
    rem t2, t0, t1
    bnez t2, fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
`)
	if code != 0 {
		t.Error("div/rem edge cases failed")
	}
}

func TestCSRCounters(t *testing.T) {
	out, _ := run(t, `
_start:
    rdcycle t0
    nop
    nop
    nop
    rdcycle t1
    sub a0, t1, t0
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`)
	// Functional sim: 1 cycle per instruction, 4 instructions between reads.
	if strings.TrimSpace(out) != "4" {
		t.Errorf("cycle delta = %q, want 4", out)
	}
}

func TestTrapOnBadInstruction(t *testing.T) {
	m := NewMachine()
	m.Mem.Write(0x1000, 4, 0) // all-zero word is an illegal instruction
	m.PC = 0x1000
	if _, err := m.Step(); err == nil {
		t.Error("expected trap on illegal instruction")
	}
}

func TestTrapOnMissingSyscallHandler(t *testing.T) {
	m := NewMachine()
	m.Mem.Write(0x1000, 4, 0x00000073) // ecall
	m.PC = 0x1000
	if _, err := m.Step(); err == nil {
		t.Error("expected trap for missing handler")
	}
}

func TestInstrLimit(t *testing.T) {
	exe, _ := asm.Assemble("_start:\n    j _start\n", asm.Options{})
	m := NewMachine()
	m.SyscallFn = BareSyscalls()
	m.MaxInstrs = 1000
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := RunFunctional(m); err == nil {
		t.Error("expected instruction-limit trap for infinite loop")
	}
}

func TestX0AlwaysZero(t *testing.T) {
	_, code := run(t, `
_start:
    li t0, 99
    add zero, t0, t0
    mv a0, zero
    li a7, 93
    ecall
`)
	if code != 0 {
		t.Errorf("x0 was written: %d", code)
	}
}

// Property: MULH/MULHU match 128-bit big.Int arithmetic.
func TestQuickMulh(t *testing.T) {
	f := func(a, b int64) bool {
		gotS := mulh(uint64(a), uint64(b))
		gotU := mulhu(uint64(a), uint64(b))
		s := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		s.Rsh(s, 64)
		wantS := uint64(s.Int64())
		u := new(big.Int).Mul(new(big.Int).SetUint64(uint64(a)), new(big.Int).SetUint64(uint64(b)))
		u.Rsh(u, 64)
		wantU := u.Uint64()
		return gotS == wantS && gotU == wantU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: memory Write/Read round-trips any value at any address/size.
func TestQuickMemory(t *testing.T) {
	f := func(addr uint64, v uint64, szSel uint8) bool {
		addr &= 0xffffff
		size := []int{1, 2, 4, 8}[szSel%4]
		m := NewMemory()
		m.Write(addr, size, v)
		got := m.Read(addr, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotAndClone(t *testing.T) {
	m := NewMachine()
	m.Regs[5] = 123
	m.PC = 0x1000
	snap := m.Snap()
	if snap.Regs[5] != 123 || snap.PC != 0x1000 {
		t.Error("snapshot wrong")
	}
	m.Mem.Write(0x2000, 8, 42)
	clone := m.Mem.Clone()
	m.Mem.Write(0x2000, 8, 99)
	if clone.Read(0x2000, 8) != 42 {
		t.Error("memory clone not deep")
	}
}

func TestReadString(t *testing.T) {
	m := NewMemory()
	m.WriteBytes(0x100, []byte("hello\x00world"))
	s, err := m.ReadString(0x100, 64)
	if err != nil || s != "hello" {
		t.Errorf("ReadString = %q, %v", s, err)
	}
	if _, err := m.ReadString(0x106, 3); err == nil {
		t.Error("expected unterminated-string error")
	}
}

func TestEbreakHalts(t *testing.T) {
	m := NewMachine()
	m.Mem.Write(0x1000, 4, 0x00100073) // ebreak
	m.PC = 0x1000
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != -1 {
		t.Errorf("ebreak: halted=%v exit=%d", m.Halted, m.ExitCode)
	}
	if _, err := m.Step(); err == nil {
		t.Error("stepping a halted machine must trap")
	}
}

func TestUnknownCSRTraps(t *testing.T) {
	exe, _ := asm.Assemble("_start:\n    csrr a0, 0x123\n", asm.Options{})
	m := NewMachine()
	m.SyscallFn = BareSyscalls()
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := m.Step(); err == nil {
		t.Error("unknown CSR should trap")
	}
}

func TestWriteLengthLimit(t *testing.T) {
	// A hostile write syscall length is rejected rather than allocating.
	exe, _ := asm.Assemble(`
_start:
    li a0, 1
    li a1, 0
    li a2, 0x200000
    li a7, 64
    ecall
`, asm.Options{})
	m := NewMachine()
	m.SyscallFn = BareSyscalls()
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := RunFunctional(m); err == nil {
		t.Error("oversized write should trap")
	}
}

func TestFormatRegs(t *testing.T) {
	m := NewMachine()
	m.Regs[10] = 0xdead
	s := FormatRegs(m)
	if !strings.Contains(s, "000000000000dead") {
		t.Errorf("FormatRegs missing value:\n%s", s)
	}
}

func TestTraceOutput(t *testing.T) {
	exe, _ := asm.Assemble("_start:\n    addi a0, zero, 1\n    li a7, 93\n    ecall\n", asm.Options{})
	m := NewMachine()
	var trace bytes.Buffer
	m.Trace = &trace
	m.SyscallFn = BareSyscalls()
	m.LoadExecutable(exe, DefaultStackTop)
	if _, err := RunFunctional(m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "addi a0, zero, 1") {
		t.Errorf("trace = %q", trace.String())
	}
}

// errDevice fails loads, exercising device error propagation.
type errDevice struct{}

func (errDevice) Name() string                { return "err" }
func (errDevice) AddrRange() (uint64, uint64) { return 0x60000000, 0x60000001 }
func (errDevice) Load(m *Machine, a uint64, s int) (uint64, uint64, error) {
	return 0, 0, &ErrTrap{PC: a, Msg: "device load error"}
}
func (errDevice) Store(m *Machine, a uint64, s int, v uint64) (uint64, error) {
	return 0, &ErrTrap{PC: a, Msg: "device store error"}
}

func TestDeviceErrorsPropagate(t *testing.T) {
	for _, srcOp := range []string{"ld t0, 0(t1)", "sd t0, 0(t1)"} {
		exe, _ := asm.Assemble("_start:\n    li t1, 0x60000000\n    "+srcOp+"\n", asm.Options{})
		m := NewMachine()
		m.Devices = []Device{errDevice{}}
		m.SyscallFn = BareSyscalls()
		m.LoadExecutable(exe, DefaultStackTop)
		if _, err := RunFunctional(m); err == nil {
			t.Errorf("%s: device error should propagate", srcOp)
		}
	}
}

// Overlapping device ranges fail at every run entry — the fast loop, the
// batched reference loop and a single Step — and keep failing until fixed.
func TestOverlappingDevicesFailEveryEntry(t *testing.T) {
	exe, err := asm.Assemble("_start:\n    li a0, 0\n    li a7, 93\n    ecall\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.SyscallFn = BareSyscalls()
	m.Devices = []Device{&UART{}, &UART{Base: UARTBase + 8}}
	m.LoadExecutable(exe, DefaultStackTop)
	_, errStep := m.Step()
	_, errFast := RunFunctional(m)
	_, errRef := RunReference(m)
	for name, err := range map[string]error{"Step": errStep, "RunFunctional": errFast, "RunReference": errRef} {
		if err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("%s with overlapping devices: %v", name, err)
		}
	}
	if m.Instret != 0 {
		t.Errorf("retired %d instructions despite the conflict", m.Instret)
	}
	m.Devices = m.Devices[:1]
	if _, err := RunFunctional(m); err != nil || !m.Halted {
		t.Errorf("after removing the conflict: %v, halted=%v", err, m.Halted)
	}
}
