package sim

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"firemarshal/internal/asm"
)

// ckptProg mixes ALU work, loads, stores (dirtying several pages), and
// console syscalls so checkpoints exercise memory capture and the
// boundary logic across ~18k retired instructions.
const ckptProg = `
_start:
    li s0, 2000
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
`

// ckptObs is one observed checkpoint: the architectural state plus a
// digest of all mapped memory.
type ckptObs struct {
	arch    ArchState
	memHash [32]byte
}

func observeCkpts(t *testing.T, every uint64, drive func(m *Machine) error) ([]ckptObs, *Machine) {
	t.Helper()
	exe, err := asm.Assemble(ckptProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Console = &bytes.Buffer{}
	m.SyscallFn = BareSyscalls()
	m.Devices = []Device{&UART{}}
	m.MaxInstrs = 10_000_000
	m.LoadExecutable(exe, DefaultStackTop)
	var obs []ckptObs
	m.CkptEvery = every
	m.CkptFn = func(mm *Machine) error {
		h := sha256.New()
		for _, pn := range mm.Mem.PageNumbers() {
			h.Write(mm.Mem.PageBytes(pn))
		}
		var o ckptObs
		o.arch = mm.SaveArch()
		copy(o.memHash[:], h.Sum(nil))
		obs = append(obs, o)
		return nil
	}
	if err := drive(m); err != nil {
		t.Fatalf("drive: %v", err)
	}
	return obs, m
}

// TestCheckpointBoundariesEquivalent locks the tentpole's determinism
// claim at the sim layer: the fast loop, the reference loop, and the
// batched cycle-exact loop all surface at the same retired-instruction
// boundaries with identical architectural state and memory.
func TestCheckpointBoundariesEquivalent(t *testing.T) {
	const every = 1000
	fast, mFast := observeCkpts(t, every, func(m *Machine) error {
		_, err := RunFunctional(m)
		return err
	})
	ref, mRef := observeCkpts(t, every, func(m *Machine) error {
		_, err := RunReference(m)
		return err
	})
	batch, mBatch := observeCkpts(t, every, func(m *Machine) error {
		for !m.Halted {
			if _, err := m.RunBatch(512, nil); err != nil {
				return err
			}
		}
		return nil
	})

	if len(fast) == 0 {
		t.Fatal("no checkpoints fired")
	}
	for name, got := range map[string][]ckptObs{"reference": ref, "batch": batch} {
		if len(got) != len(fast) {
			t.Fatalf("%s path fired %d checkpoints, fast fired %d", name, len(got), len(fast))
		}
		for i := range got {
			if got[i] != fast[i] {
				t.Fatalf("%s checkpoint %d diverges:\nfast %+v\n%s %+v", name, i, fast[i].arch, name, got[i].arch)
			}
		}
	}
	for i, o := range fast {
		if want := uint64(every * (i + 1)); o.arch.Instret != want {
			t.Errorf("checkpoint %d at instret %d, want %d", i, o.arch.Instret, want)
		}
	}
	if mFast.Snap() != mRef.Snap() || mFast.Snap() != mBatch.Snap() {
		t.Error("final snapshots diverge across paths")
	}
}

// TestCheckpointRestoreResumes snapshots mid-run, rebuilds a fresh
// machine from the snapshot, and checks the resumed execution is
// bit-identical to the uninterrupted run: same exit, same counters, same
// console suffix.
func TestCheckpointRestoreResumes(t *testing.T) {
	exe, err := asm.Assemble(ckptProg, asm.Options{})
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

	// Straight run, capturing the snapshot at the 5th boundary.
	straight, straightConsole := newMachine()
	const every = 1000
	var snapArch ArchState
	snapPages := map[uint64][]byte{}
	var snapConsoleLen int
	straight.CkptEvery = every
	straight.CkptFn = func(m *Machine) error {
		if m.Instret != 5*every {
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
	if snapArch.Instret != 5*every {
		t.Fatal("mid-run snapshot never captured")
	}

	// Fresh machine, restored from the snapshot, run to completion.
	resumed, resumedConsole := newMachine()
	resumed.Mem.Reset()
	for pn, data := range snapPages {
		if err := resumed.Mem.SetPage(pn, data); err != nil {
			t.Fatal(err)
		}
	}
	resumed.RestoreArch(snapArch)
	if _, err := RunFunctional(resumed); err != nil {
		t.Fatal(err)
	}

	if resumed.ExitCode != straight.ExitCode {
		t.Errorf("exit = %d, want %d", resumed.ExitCode, straight.ExitCode)
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
}

func TestMemoryDirtyTracking(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0xdead)
	m.Write(0x1008, 8, 0xbeef) // same page, TLB-resident dirty hit
	m.Write(0x5000, 1, 1)
	d := m.TakeDirty()
	if len(d) != 2 {
		t.Fatalf("dirty = %v, want pages 1 and 5", d)
	}
	if _, ok := d[0x1]; !ok {
		t.Error("page 0x1 not marked dirty")
	}
	if len(m.TakeDirty()) != 0 {
		t.Error("dirty set not reset")
	}
	// A write through a still-resident TLB entry must re-mark the page.
	m.Write(0x1010, 8, 7)
	if _, ok := m.TakeDirty()[0x1]; !ok {
		t.Error("TLB-resident page not re-marked after TakeDirty")
	}
	// Reads never dirty.
	m.Read(0x1000, 8)
	if len(m.TakeDirty()) != 0 {
		t.Error("read marked a page dirty")
	}
}
