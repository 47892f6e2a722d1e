package netsim

import (
	"fmt"

	"firemarshal/internal/sim"
)

// NIC is the RDMA-capable network interface exposed to guests. A memory
// server (the bare-metal job of Listing 1) registers a region of its memory
// with the NIC; the fabric then serves RDMA reads/writes against it without
// CPU involvement — the property the PFA leverages (§IV-A).
type NIC struct {
	// Fabric is the cluster network.
	Fabric *Fabric
	// NodeName identifies this node on the fabric.
	NodeName string

	base, size uint64
	registered int
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

// Name implements sim.Device.
func (n *NIC) Name() string { return "icenic" }

// AddrRange implements sim.Device.
func (n *NIC) AddrRange() (uint64, uint64) { return NICBase, NICBase + nicRegSpan }

// Load implements sim.Device.
func (n *NIC) Load(m *sim.Machine, addr uint64, size int) (uint64, uint64, error) {
	switch addr - NICBase {
	case nicRegCount:
		return uint64(n.registered), 0, nil
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
		if n.Fabric == nil {
			return 0, fmt.Errorf("netsim: NIC has no fabric (functional simulation cannot model inter-job networking)")
		}
		if n.size == 0 {
			return 0, fmt.Errorf("netsim: NIC register with zero size")
		}
		data := m.Mem.ReadBytes(n.base, int(n.size))
		n.Fabric.RegisterMemory(n.NodeName, n.base, data)
		n.registered++
		return 0, nil
	default:
		return 0, fmt.Errorf("netsim: NIC store to unknown register %#x", addr)
	}
}

var _ sim.Device = (*NIC)(nil)
