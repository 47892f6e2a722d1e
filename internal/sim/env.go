package sim

import (
	"fmt"
	"strconv"
)

// Standard guest syscall numbers. The numbers follow the Linux RISC-V ABI
// where an equivalent exists, plus a few platform calls in the 0x100 range
// (the role the HTIF/SBI debug interface plays on real RISC-V systems).
const (
	SysWrite = 64
	SysExit  = 93
	// SysPutInt prints a0 as a signed decimal to the console.
	SysPutInt = 0x101
	// SysPutChar prints the low byte of a0.
	SysPutChar = 0x102
	// SysGetCycle returns the current cycle in a0 (same as rdcycle).
	SysGetCycle = 0x103
)

// Registers by ABI name, for readability in environment code.
const (
	RegA0 = 10
	RegA1 = 11
	RegA2 = 12
	RegA7 = 17
)

// BareSyscalls returns the proxy-kernel style syscall handler used for
// bare-metal workloads (§IV-A: "tests were implemented either completely
// bare metal or in the RISC-V proxy kernel"). Unknown syscall numbers can be
// delegated to fallback handlers, which is how platform devices (PFA golden
// model, accelerators) extend the environment.
func BareSyscalls(fallbacks ...func(m *Machine, num uint64) (bool, error)) func(m *Machine) error {
	return func(m *Machine) error {
		num := m.Regs[RegA7]
		switch num {
		case SysExit:
			m.Halted = true
			m.ExitCode = int64(m.Regs[RegA0])
			return nil
		case SysWrite:
			addr, n := m.Regs[RegA1], m.Regs[RegA2]
			if n > 1<<20 {
				return m.trapf("write length %d too large", n)
			}
			data := m.Mem.ReadBytes(addr, int(n))
			if _, err := m.Console.Write(data); err != nil {
				return err
			}
			m.Regs[RegA0] = n
			return nil
		case SysPutInt:
			s := strconv.FormatInt(int64(m.Regs[RegA0]), 10)
			_, err := m.Console.Write([]byte(s))
			return err
		case SysPutChar:
			_, err := m.Console.Write([]byte{byte(m.Regs[RegA0])})
			return err
		case SysGetCycle:
			m.Regs[RegA0] = m.Now
			return nil
		default:
			for _, fb := range fallbacks {
				handled, err := fb(m, num)
				if err != nil {
					return err
				}
				if handled {
					return nil
				}
			}
			return m.trapf("unknown syscall %d", num)
		}
	}
}

// UART is the serial console device. Stores to its data register emit a
// byte on the machine console; loads report an always-ready status.
type UART struct {
	Base uint64
}

// UARTBase is the platform's conventional UART address.
const UARTBase = 0x54000000

// Name implements Device.
func (u *UART) Name() string { return "uart0" }

// AddrRange implements Device.
func (u *UART) AddrRange() (uint64, uint64) {
	base := u.Base
	if base == 0 {
		base = UARTBase
	}
	return base, base + 16
}

// Load implements Device: reading any UART register returns "TX ready".
func (u *UART) Load(m *Machine, addr uint64, size int) (uint64, uint64, error) {
	return 1, 0, nil
}

// Store implements Device: a store to the base register transmits a byte.
func (u *UART) Store(m *Machine, addr uint64, size int, val uint64) (uint64, error) {
	if base, _ := u.AddrRange(); addr == base {
		if _, err := m.Console.Write([]byte{byte(val)}); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// DefaultStackTop is where the stack pointer starts for loaded programs.
const DefaultStackTop = 0x8000000

// RunFunctional executes the machine until it halts, advancing one cycle
// per instruction — the functional simulator's notion of time. It returns
// the number of retired instructions.
func RunFunctional(m *Machine) (uint64, error) { return runToHalt(m, nil, true) }

// RunReference executes the machine until it halts using only the
// reference StepInto path — the semantics every fast path is differentially
// tested against. It advances one cycle per instruction, like
// RunFunctional.
func RunReference(m *Machine) (uint64, error) { return runToHalt(m, nil, false) }

// RunTimed executes the machine until it halts, advancing m.Now by
// charge(ev) after each retired instruction — the run loop of the
// cycle-approximate and cycle-exact platforms, whose charge is their
// timing model. It takes the predecoded loop unless a memory hook, trace
// writer or tamper function is installed. charge may read an Event's PC,
// Instr.Op, Taken, MemAddr, MemSize, MMIO, Extra and Syscall, and must not
// retain it; a nil charge is RunFunctional. It returns the number of
// retired instructions.
func RunTimed(m *Machine, charge func(*Event) uint64) (uint64, error) {
	return runToHalt(m, charge, true)
}

// timedBatch is how many instructions a timed or reference run retires
// between polls of the Stop channel, so a killed job stops within that many
// retirements.
const timedBatch = 4096

// runToHalt is the one place a loop is chosen. When fast is set and no memory
// hook, trace writer or tamper function needs every instruction's full
// Event, the machine runs on the predecoded loop (see fastpath.go);
// otherwise it retires through RunBatch/StepInto, polling the kill switch
// between batches. Both produce identical architectural state and, given
// the same charge, identical cycles; checkpoints land at the same
// retired-instruction counts on either.
func runToHalt(m *Machine, charge func(*Event) uint64, fast bool) (uint64, error) {
	start := m.Instret
	if fast && len(m.Hooks) == 0 && m.Trace == nil && m.TamperFn == nil {
		err := m.runFast(charge)
		return m.Instret - start, err
	}
	for !m.Halted {
		if m.Interrupted() {
			return m.Instret - start, ErrStopped
		}
		if _, err := m.RunBatch(timedBatch, charge); err != nil {
			return m.Instret - start, err
		}
	}
	return m.Instret - start, nil
}

// FormatRegs renders the register file for debugging output.
func FormatRegs(m *Machine) string {
	out := ""
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			out += fmt.Sprintf("x%-2d=%016x ", j, m.Regs[j])
		}
		out += "\n"
	}
	return out
}

// ArgvBase is where Exec places guest argv data.
const ArgvBase = 0x7f00000

// SetupArgv writes argc/argv into guest memory following the RISC-V bare
// calling convention used by the proxy kernel: a0 = argc, a1 = argv
// (pointer to a NULL-terminated array of C-string pointers).
func SetupArgv(m *Machine, args []string) {
	ptrs := make([]uint64, 0, len(args)+1)
	cursor := uint64(ArgvBase) + uint64(8*(len(args)+1))
	for _, arg := range args {
		ptrs = append(ptrs, cursor)
		m.Mem.WriteBytes(cursor, append([]byte(arg), 0))
		cursor += uint64(len(arg)) + 1
	}
	ptrs = append(ptrs, 0)
	for i, p := range ptrs {
		m.Mem.Write(uint64(ArgvBase)+uint64(8*i), 8, p)
	}
	m.Regs[RegA0] = uint64(len(args))
	m.Regs[RegA1] = ArgvBase
}
