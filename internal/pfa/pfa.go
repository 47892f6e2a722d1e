// Package pfa models the Page Fault Accelerator of the paper's first case
// study (§IV-A): a hardware unit embedded in the MMU that services remote
// page faults by fetching pages over an RDMA-capable network interface,
// keeping the OS's slow paging logic off the critical path. The package
// provides three pieces:
//
//   - Device: the PFA hardware model (MMIO queues, per-step latency
//     counters) installed on the cycle-exact simulator and, as a golden
//     model, on the Spike functional simulator — mirroring the paper's
//     methodology of verifying the same software against a Spike golden
//     model before RTL simulation.
//   - GoldenBackend: emulated remote memory with fixed latency (what the
//     modified Spike used).
//   - NetBackend: real RDMA fetches over the netsim fabric from a
//     bare-metal memory-server job (the FireSim configuration).
//   - Baseline: the non-accelerated comparison that emulates the PFA's
//     behaviour in the regular (software) page fault handler, as the
//     kernel bring-up did before the real driver existed.
package pfa

import (
	"fmt"

	"firemarshal/internal/netsim"
	"firemarshal/internal/sim"
)

// PageSize is the guest page granularity.
const PageSize = 4096

// MMIOBase is the PFA's device address.
const MMIOBase = 0x55000000

// MMIO register offsets.
const (
	regFreeQ     = 0x00 // store: push a free frame token
	regFreeStat  = 0x08 // load: free-queue occupancy
	regNewQ      = 0x10 // load: pop a fetched page address (0 = empty)
	regNewStat   = 0x18 // load: new-queue occupancy
	regLatDetect = 0x20 // load: last fault's detect cycles
	regLatWalk   = 0x28 // load: last fault's page-table walk cycles
	regLatRDMA   = 0x30 // load: last fault's network fetch cycles
	regLatInstal = 0x38 // load: last fault's install cycles
	regFaults    = 0x40 // load: total faults serviced
	regEvict     = 0x48 // store: evict the page containing the address
	regSize      = 0x50
)

// Timing of the hardware steps (cycles), from the block diagram in Fig. 4:
// detect (MMU signals the PFA), page-table walk, RDMA issue+transfer
// (from the backend), and page install.
type Timing struct {
	DetectCycles  uint64
	WalkCycles    uint64
	InstallCycles uint64
}

// DefaultTiming matches a hardware fault path: a handful of cycles per
// step, with the network transfer dominating.
func DefaultTiming() Timing {
	return Timing{DetectCycles: 3, WalkCycles: 24, InstallCycles: 8}
}

// Backend supplies remote pages.
type Backend interface {
	// FetchPage returns the PageSize bytes backing the remote page at addr
	// and the modeled transfer latency in cycles.
	FetchPage(addr uint64) ([]byte, uint64, error)
	// Name describes the backend in logs.
	Name() string
}

// GoldenBackend emulates remote memory locally — the Spike golden model of
// §IV-A ("the golden model ... emulated remote memory").
type GoldenBackend struct {
	// Latency is the fixed modeled fetch latency.
	Latency uint64
	// Pattern seeds deterministic page contents.
	Pattern byte
}

// Name implements Backend.
func (g *GoldenBackend) Name() string { return "golden" }

// FetchPage implements Backend: page contents are a deterministic function
// of the address so clients can validate fetched data.
func (g *GoldenBackend) FetchPage(addr uint64) ([]byte, uint64, error) {
	page := make([]byte, PageSize)
	base := addr &^ (PageSize - 1)
	for i := range page {
		page[i] = byte(base>>12) ^ byte(i) ^ g.Pattern
	}
	return page, g.Latency, nil
}

// NetBackend fetches pages from a memory-server node over the fabric.
type NetBackend struct {
	Fabric *netsim.Fabric
	// ServerNode names the bare-metal job serving remote memory.
	ServerNode string
}

// Name implements Backend.
func (n *NetBackend) Name() string { return "rdma:" + n.ServerNode }

// FetchPage implements Backend.
func (n *NetBackend) FetchPage(addr uint64) ([]byte, uint64, error) {
	base := addr &^ (PageSize - 1)
	return n.Fabric.RDMARead(n.ServerNode, base, PageSize)
}

// Stats aggregates fault-service measurements.
type Stats struct {
	Faults        uint64
	DetectCycles  uint64
	WalkCycles    uint64
	RDMACycles    uint64
	InstallCycles uint64
	KernelCycles  uint64 // baseline only: synchronous kernel work
}

// TotalCycles is the summed critical-path cost of all faults.
func (s Stats) TotalCycles() uint64 {
	return s.DetectCycles + s.WalkCycles + s.RDMACycles + s.InstallCycles + s.KernelCycles
}

// Device is the PFA hardware model. It is both an MMIO device (control
// interface) and a memory hook (fault detection on the remote region).
type Device struct {
	timing  Timing
	backend Backend

	remoteBase uint64
	remoteSize uint64

	resident map[uint64]bool
	freeq    []uint64
	newq     []uint64

	last  Stats // last fault's per-step cycles in the *Cycles fields
	total Stats
}

// FreeQCapacity bounds the free-frame queue, as the real PFA's queues were
// fixed-size hardware structures.
const FreeQCapacity = 64

// NewDevice creates a PFA servicing the remote region [base, base+size).
func NewDevice(timing Timing, backend Backend, remoteBase, remoteSize uint64) (*Device, error) {
	if remoteBase%PageSize != 0 || remoteSize%PageSize != 0 {
		return nil, fmt.Errorf("pfa: remote region must be page aligned")
	}
	if backend == nil {
		return nil, fmt.Errorf("pfa: nil backend")
	}
	return &Device{
		timing:     timing,
		backend:    backend,
		remoteBase: remoteBase,
		remoteSize: remoteSize,
		resident:   map[uint64]bool{},
	}, nil
}

// Name implements sim.Device.
func (d *Device) Name() string { return "pfa" }

// AddrRange implements sim.Device.
func (d *Device) AddrRange() (uint64, uint64) { return MMIOBase, MMIOBase + regSize }

// Load implements sim.Device.
func (d *Device) Load(m *sim.Machine, addr uint64, size int) (uint64, uint64, error) {
	switch addr - MMIOBase {
	case regFreeStat:
		return uint64(len(d.freeq)), 0, nil
	case regNewQ:
		if len(d.newq) == 0 {
			return 0, 0, nil
		}
		v := d.newq[0]
		d.newq = d.newq[1:]
		return v, 0, nil
	case regNewStat:
		return uint64(len(d.newq)), 0, nil
	case regLatDetect:
		return d.last.DetectCycles, 0, nil
	case regLatWalk:
		return d.last.WalkCycles, 0, nil
	case regLatRDMA:
		return d.last.RDMACycles, 0, nil
	case regLatInstal:
		return d.last.InstallCycles, 0, nil
	case regFaults:
		return d.total.Faults, 0, nil
	default:
		return 0, 0, fmt.Errorf("pfa: load from unknown register %#x", addr)
	}
}

// Store implements sim.Device.
func (d *Device) Store(m *sim.Machine, addr uint64, size int, val uint64) (uint64, error) {
	switch addr - MMIOBase {
	case regFreeQ:
		if len(d.freeq) >= FreeQCapacity {
			return 0, fmt.Errorf("pfa: free queue overflow")
		}
		d.freeq = append(d.freeq, val)
		return 0, nil
	case regEvict:
		page := val &^ (PageSize - 1)
		delete(d.resident, page)
		return 0, nil
	default:
		return 0, fmt.Errorf("pfa: store to unknown register %#x", addr)
	}
}

// BeforeAccess implements sim.MemHook: detect remote page faults and
// service them in "hardware".
func (d *Device) BeforeAccess(m *sim.Machine, addr uint64, store bool) (uint64, error) {
	if addr < d.remoteBase || addr >= d.remoteBase+d.remoteSize {
		return 0, nil
	}
	page := addr &^ (PageSize - 1)
	if d.resident[page] {
		return 0, nil
	}
	// The critical path, handled synchronously in hardware (Fig. 4 steps
	// 2-5): the kernel is not involved.
	if len(d.freeq) == 0 {
		return 0, fmt.Errorf("pfa: fault at %#x with empty free queue (kernel must provision frames)", addr)
	}
	d.freeq = d.freeq[:len(d.freeq)-1]

	data, rdma, err := d.backend.FetchPage(page)
	if err != nil {
		return 0, fmt.Errorf("pfa: remote fetch for %#x: %w", page, err)
	}
	m.Mem.WriteBytes(page, data)
	d.resident[page] = true
	d.newq = append(d.newq, page)

	d.last = Stats{
		DetectCycles:  d.timing.DetectCycles,
		WalkCycles:    d.timing.WalkCycles,
		RDMACycles:    rdma,
		InstallCycles: d.timing.InstallCycles,
	}
	d.total.Faults++
	d.total.DetectCycles += d.last.DetectCycles
	d.total.WalkCycles += d.last.WalkCycles
	d.total.RDMACycles += rdma
	d.total.InstallCycles += d.last.InstallCycles
	return d.last.TotalCycles(), nil
}

// TotalStats returns cumulative fault statistics.
func (d *Device) TotalStats() Stats { return d.total }
