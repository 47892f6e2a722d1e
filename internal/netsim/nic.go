package netsim

import (
	"fmt"

	"firemarshal/internal/sim"
)

// NIC is the RDMA-capable network interface exposed to guests. A memory
// server (the bare-metal job of Listing 1) registers regions of its memory
// with the NIC, which snapshots each one as it is registered; after the
// server halts, Encode is what the fabric is built from, and remote reads
// against it need no CPU — the property the PFA leverages (§IV-A).
type NIC struct {
	base, size uint64
	regions    []region
}

// NICBase is the NIC's MMIO address.
const NICBase = 0x57000000

// NIC register offsets.
const (
	nicRegBase     = 0x00 // store: region base
	nicRegSize     = 0x08 // store: region size
	nicRegRegister = 0x10 // store: snapshot [base,base+size) and register it
	nicRegCount    = 0x18 // load: regions registered so far
	nicRegSpan     = 0x20
)

// Encode returns the canonical encoding of the regions registered so far:
// one server's share of the fabric (see New).
func (n *NIC) Encode() []byte { return encode(n.regions) }

// Name implements sim.Device.
func (n *NIC) Name() string { return "icenic" }

// AddrRange implements sim.Device.
func (n *NIC) AddrRange() (uint64, uint64) { return NICBase, NICBase + nicRegSpan }

// Load implements sim.Device.
func (n *NIC) Load(m *sim.Machine, addr uint64, size int) (uint64, uint64, error) {
	switch addr - NICBase {
	case nicRegCount:
		return uint64(len(n.regions)), 0, nil
	default:
		return 0, 0, fmt.Errorf("netsim: NIC load from unknown register %#x", addr)
	}
}

// Store implements sim.Device.
func (n *NIC) Store(m *sim.Machine, addr uint64, size int, val uint64) (uint64, error) {
	switch addr - NICBase {
	case nicRegBase:
		n.base = val
		return 0, nil
	case nicRegSize:
		n.size = val
		return 0, nil
	case nicRegRegister:
		if n.size == 0 {
			return 0, fmt.Errorf("netsim: NIC register with zero size")
		}
		if n.base+n.size < n.base {
			return 0, fmt.Errorf("netsim: NIC register of [%#x,+%#x) wraps the address space", n.base, n.size)
		}
		n.regions = append(n.regions, region{base: n.base, data: m.Mem.ReadBytes(n.base, int(n.size))})
		return 0, nil
	default:
		return 0, fmt.Errorf("netsim: NIC store to unknown register %#x", addr)
	}
}

var _ sim.Device = (*NIC)(nil)
