package pfa

import (
	"io"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/netsim"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
)

const remoteBase = 0x40000000
const remoteSize = 64 * PageSize

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DefaultTiming(), &GoldenBackend{Latency: 1200}, remoteBase, remoteSize)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFaultServicesPage(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	// Kernel provisions a free frame.
	if _, err := d.Store(m, MMIOBase+regFreeQ, 8, 1); err != nil {
		t.Fatal(err)
	}
	extra, err := d.BeforeAccess(m, remoteBase+0x10, false)
	if err != nil {
		t.Fatal(err)
	}
	if extra == 0 {
		t.Error("fault should cost cycles")
	}
	// Page data must now be resident and correct per the golden pattern.
	want, _, _ := (&GoldenBackend{Latency: 1200}).FetchPage(remoteBase)
	got := m.Mem.ReadBytes(remoteBase, PageSize)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	// Second access: no fault.
	extra, err = d.BeforeAccess(m, remoteBase+0x20, false)
	if err != nil || extra != 0 {
		t.Errorf("resident access should be free: extra=%d err=%v", extra, err)
	}
	if d.TotalStats().Faults != 1 {
		t.Errorf("faults = %d", d.TotalStats().Faults)
	}
}

func TestFaultWithEmptyFreeQueueFails(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	if _, err := d.BeforeAccess(m, remoteBase, false); err == nil {
		t.Error("expected error when kernel has not provisioned frames")
	}
}

func TestNewQueueBookkeeping(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	d.Store(m, MMIOBase+regFreeQ, 8, 1)
	d.Store(m, MMIOBase+regFreeQ, 8, 2)
	d.BeforeAccess(m, remoteBase, false)
	d.BeforeAccess(m, remoteBase+PageSize, false)

	n, _, _ := d.Load(m, MMIOBase+regNewStat, 8)
	if n != 2 {
		t.Fatalf("newq occupancy = %d", n)
	}
	p1, _, _ := d.Load(m, MMIOBase+regNewQ, 8)
	p2, _, _ := d.Load(m, MMIOBase+regNewQ, 8)
	if p1 != remoteBase || p2 != remoteBase+PageSize {
		t.Errorf("newq pops = %#x, %#x", p1, p2)
	}
	empty, _, _ := d.Load(m, MMIOBase+regNewQ, 8)
	if empty != 0 {
		t.Errorf("empty newq pop = %#x", empty)
	}
}

func TestLatencyCounters(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	d.Store(m, MMIOBase+regFreeQ, 8, 1)
	d.BeforeAccess(m, remoteBase, false)
	det, _, _ := d.Load(m, MMIOBase+regLatDetect, 8)
	walk, _, _ := d.Load(m, MMIOBase+regLatWalk, 8)
	rdma, _, _ := d.Load(m, MMIOBase+regLatRDMA, 8)
	inst, _, _ := d.Load(m, MMIOBase+regLatInstal, 8)
	timing := DefaultTiming()
	if det != timing.DetectCycles || walk != timing.WalkCycles || inst != timing.InstallCycles {
		t.Errorf("per-step counters wrong: %d %d %d", det, walk, inst)
	}
	if rdma != 1200 {
		t.Errorf("rdma counter = %d", rdma)
	}
}

func TestEvictForcesRefault(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	d.Store(m, MMIOBase+regFreeQ, 8, 1)
	d.Store(m, MMIOBase+regFreeQ, 8, 2)
	d.BeforeAccess(m, remoteBase, false)
	d.Store(m, MMIOBase+regEvict, 8, remoteBase+0x40)
	extra, err := d.BeforeAccess(m, remoteBase, false)
	if err != nil || extra == 0 {
		t.Errorf("evicted page should refault: extra=%d err=%v", extra, err)
	}
	if d.TotalStats().Faults != 2 {
		t.Errorf("faults = %d", d.TotalStats().Faults)
	}
}

func TestFreeQueueOverflow(t *testing.T) {
	d := newDevice(t)
	m := sim.NewMachine()
	for i := 0; i < FreeQCapacity; i++ {
		if _, err := d.Store(m, MMIOBase+regFreeQ, 8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Store(m, MMIOBase+regFreeQ, 8, 999); err == nil {
		t.Error("expected overflow error")
	}
}

func TestBaselineSlowerThanPFA(t *testing.T) {
	// The headline claim: the hardware critical path is far cheaper than
	// the software paging path for the same pages and network.
	backend := &GoldenBackend{Latency: 1200}
	d, _ := NewDevice(DefaultTiming(), backend, remoteBase, remoteSize)
	b, _ := NewBaseline(DefaultBaselineTiming(), backend, remoteBase, remoteSize)
	m1, m2 := sim.NewMachine(), sim.NewMachine()
	d.Store(m1, MMIOBase+regFreeQ, 8, 1)

	pfaCost, err := d.BeforeAccess(m1, remoteBase, false)
	if err != nil {
		t.Fatal(err)
	}
	swCost, err := b.BeforeAccess(m2, remoteBase, false)
	if err != nil {
		t.Fatal(err)
	}
	if swCost <= pfaCost {
		t.Errorf("software path (%d) should be slower than PFA (%d)", swCost, pfaCost)
	}
	// With network time excluded, the gap is the kernel overhead the PFA
	// moves off the critical path.
	pfaNonNet := pfaCost - 1200
	swNonNet := swCost - 1200
	if swNonNet < 10*pfaNonNet {
		t.Errorf("kernel-side overhead should dominate: pfa=%d sw=%d", pfaNonNet, swNonNet)
	}
}

// countingBackend counts the pages a device fetches through its backend.
type countingBackend struct {
	Backend
	fetches int
}

func (c *countingBackend) FetchPage(addr uint64) ([]byte, uint64, error) {
	c.fetches++
	return c.Backend.FetchPage(addr)
}

func TestNetBackendFetchesFromServer(t *testing.T) {
	serverMem := make([]byte, remoteSize)
	for i := range serverMem {
		serverMem[i] = byte(i * 7)
	}
	server := registerRegion(t, remoteBase, serverMem)
	fabric, err := netsim.New(netsim.DefaultConfig(), map[string][]byte{"server": server.Encode()})
	if err != nil {
		t.Fatal(err)
	}

	backend := &countingBackend{Backend: &NetBackend{Fabric: fabric, ServerNode: "server"}}
	d, _ := NewDevice(DefaultTiming(), backend, remoteBase, remoteSize)
	m := sim.NewMachine()
	d.Store(m, MMIOBase+regFreeQ, 8, 1)
	if _, err := d.BeforeAccess(m, remoteBase+PageSize, false); err != nil {
		t.Fatal(err)
	}
	got := m.Mem.ReadBytes(remoteBase+PageSize, 16)
	for i := 0; i < 16; i++ {
		if got[i] != serverMem[PageSize+i] {
			t.Fatalf("fetched byte %d = %#x, want %#x", i, got[i], serverMem[PageSize+i])
		}
	}
	if backend.fetches != 1 {
		t.Errorf("page fetches over the fabric = %d, want 1", backend.fetches)
	}
}

// registerRegion is a memory server that registered data at base with its
// NIC, as workgen.PFAServerSource does.
func registerRegion(t *testing.T, base uint64, data []byte) *netsim.NIC {
	t.Helper()
	m := sim.NewMachine()
	m.Mem.WriteBytes(base, data)
	nic := &netsim.NIC{}
	for _, st := range [][2]uint64{{0x00, base}, {0x08, uint64(len(data))}, {0x10, 1}} {
		if _, err := nic.Store(m, netsim.NICBase+st[0], 8, st[1]); err != nil {
			t.Fatal(err)
		}
	}
	return nic
}

func TestNetBackendUnknownServer(t *testing.T) {
	fabric, err := netsim.New(netsim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	backend := &NetBackend{Fabric: fabric, ServerNode: "ghost"}
	d, _ := NewDevice(DefaultTiming(), backend, remoteBase, remoteSize)
	m := sim.NewMachine()
	d.Store(m, MMIOBase+regFreeQ, 8, 1)
	if _, err := d.BeforeAccess(m, remoteBase, false); err == nil {
		t.Error("expected error for missing server")
	}
}

func TestAlignmentValidation(t *testing.T) {
	if _, err := NewDevice(DefaultTiming(), &GoldenBackend{}, 0x1001, PageSize); err == nil {
		t.Error("expected alignment error")
	}
	if _, err := NewBaseline(DefaultBaselineTiming(), &GoldenBackend{}, remoteBase, 100); err == nil {
		t.Error("expected alignment error")
	}
	if _, err := NewDevice(DefaultTiming(), nil, remoteBase, PageSize); err == nil {
		t.Error("expected nil-backend error")
	}
}

// guestProgram is the latency microbenchmark core: provision frames, touch
// a remote page, read per-step counters from MMIO, print them.
const guestProgram = `
.equ PFA, 0x55000000
.equ REMOTE, 0x40000000
_start:
    # push a free frame
    li t0, PFA
    li t1, 1
    sd t1, 0x00(t0)
    # touch a remote page (faults, serviced by hardware)
    li t2, REMOTE
    ld t3, 0(t2)
    # print per-step latency counters
    ld a0, 0x20(t0)
    li a7, 0x101
    ecall
    li a0, ','
    li a7, 0x102
    ecall
    ld a0, 0x28(t0)
    li a7, 0x101
    ecall
    li a0, ','
    li a7, 0x102
    ecall
    ld a0, 0x30(t0)
    li a7, 0x101
    ecall
    li a0, ','
    li a7, 0x102
    ecall
    ld a0, 0x38(t0)
    li a7, 0x101
    ecall
    li a0, 10
    li a7, 0x102
    ecall
    li a0, 0
    li a7, 93
    ecall
`

func buildGuest(t *testing.T) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(guestProgram, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestGuestVisibleOnFunctionalAndRTL(t *testing.T) {
	// §IV-A methodology: the same artifact runs against the Spike golden
	// model and in RTL simulation; outputs must agree.
	exe := buildGuest(t)
	outputs := map[string]string{}

	fp := funcsim.New(funcsim.Config{Variant: "spike"})
	d1 := newDevice(t)
	fp.AddDevice(d1)
	fp.AddHook(d1)
	var fOut stringsWriter
	if _, err := fp.Exec(exe, &fOut); err != nil {
		t.Fatal(err)
	}
	outputs["spike"] = fOut.s

	rp, err := rtlsim.New(rtlsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDevice(t)
	rp.AddDevice(d2)
	rp.AddHook(d2)
	var rOut stringsWriter
	if _, err := rp.Exec(exe, &rOut); err != nil {
		t.Fatal(err)
	}
	outputs["firesim"] = rOut.s

	if outputs["spike"] != outputs["firesim"] {
		t.Errorf("outputs differ:\nspike:   %q\nfiresim: %q", outputs["spike"], outputs["firesim"])
	}
	if outputs["spike"] != "3,24,1200,8\n" {
		t.Errorf("latency CSV = %q", outputs["spike"])
	}
}

type stringsWriter struct{ s string }

func (w *stringsWriter) Write(p []byte) (int, error) {
	w.s += string(p)
	return len(p), nil
}

var _ io.Writer = (*stringsWriter)(nil)
var _ sim.Device = (*Device)(nil)
var _ sim.MemHook = (*Device)(nil)
var _ sim.MemHook = (*Baseline)(nil)
