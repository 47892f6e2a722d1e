package pfa

import (
	"fmt"

	"firemarshal/internal/sim"
)

// Baseline models the non-accelerated remote-paging path: every remote page
// fault traps into the kernel, which walks its data structures, performs
// the fetch synchronously through the OS network stack, and updates paging
// bookkeeping (LRU lists, reverse maps) before resuming — the "emulating
// the PFA's behavior in the regular page fault handler" configuration that
// §IV-A built first. All of that work sits on the fault's critical path,
// which is precisely what the PFA removes.
type Baseline struct {
	backend Backend

	remoteBase uint64
	remoteSize uint64

	resident map[uint64]bool

	timing BaselineTiming
	last   Stats
	total  Stats
}

// BaselineTiming models the software fault path costs in cycles.
type BaselineTiming struct {
	// TrapCycles covers the trap entry + context save.
	TrapCycles uint64
	// SoftwareWalkCycles is the kernel's fault triage and page-table work.
	SoftwareWalkCycles uint64
	// NetworkStackCycles is the OS networking overhead added to the raw
	// transfer (syscall layers, driver, completion handling).
	NetworkStackCycles uint64
	// BookkeepingCycles is LRU/rmap/cgroup accounting done synchronously.
	BookkeepingCycles uint64
	// ReturnCycles covers context restore + return.
	ReturnCycles uint64
}

// DefaultBaselineTiming reflects measured Linux do_page_fault-style costs
// relative to the hardware path: microseconds of kernel work per fault at
// 1GHz.
func DefaultBaselineTiming() BaselineTiming {
	return BaselineTiming{
		TrapCycles:         300,
		SoftwareWalkCycles: 900,
		NetworkStackCycles: 2500,
		BookkeepingCycles:  1800,
		ReturnCycles:       250,
	}
}

// NewBaseline creates the software-paging comparison for the same remote
// region and backend as the PFA device.
func NewBaseline(timing BaselineTiming, backend Backend, remoteBase, remoteSize uint64) (*Baseline, error) {
	if remoteBase%PageSize != 0 || remoteSize%PageSize != 0 {
		return nil, fmt.Errorf("pfa: remote region must be page aligned")
	}
	if backend == nil {
		return nil, fmt.Errorf("pfa: nil backend")
	}
	return &Baseline{
		timing:     timing,
		backend:    backend,
		remoteBase: remoteBase,
		remoteSize: remoteSize,
		resident:   map[uint64]bool{},
	}, nil
}

// BeforeAccess implements sim.MemHook.
func (b *Baseline) BeforeAccess(m *sim.Machine, addr uint64, store bool) (uint64, error) {
	if addr < b.remoteBase || addr >= b.remoteBase+b.remoteSize {
		return 0, nil
	}
	page := addr &^ (PageSize - 1)
	if b.resident[page] {
		return 0, nil
	}
	data, rdma, err := b.backend.FetchPage(page)
	if err != nil {
		return 0, fmt.Errorf("pfa baseline: remote fetch for %#x: %w", page, err)
	}
	m.Mem.WriteBytes(page, data)
	b.resident[page] = true

	kernel := b.timing.TrapCycles + b.timing.BookkeepingCycles + b.timing.ReturnCycles
	b.last = Stats{
		DetectCycles:  b.timing.TrapCycles,
		WalkCycles:    b.timing.SoftwareWalkCycles,
		RDMACycles:    rdma + b.timing.NetworkStackCycles,
		InstallCycles: b.timing.BookkeepingCycles + b.timing.ReturnCycles,
	}
	// Attribute trap/bookkeeping to KernelCycles in the totals so reports
	// can show how much of the path is kernel-only work.
	b.total.Faults++
	b.total.DetectCycles += b.timing.TrapCycles
	b.total.WalkCycles += b.timing.SoftwareWalkCycles
	b.total.RDMACycles += rdma + b.timing.NetworkStackCycles
	b.total.InstallCycles += b.timing.BookkeepingCycles + b.timing.ReturnCycles
	_ = kernel
	return b.last.TotalCycles(), nil
}

// TotalStats returns cumulative fault statistics.
func (b *Baseline) TotalStats() Stats { return b.total }
