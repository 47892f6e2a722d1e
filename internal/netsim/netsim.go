// Package netsim models the network connecting jobs in a multi-node
// cycle-exact simulation (the role of FireSim's simulated datacenter
// network, §III-A "jobs ... will be instantiated as network nodes in
// FireSim simulation"). A memory server registers regions of its memory
// with its simulated NIC; once the server halts, those regions are the
// fabric, and remote nodes read them without involving the owner's CPU —
// exactly the property the Page Fault Accelerator exploits (§IV-A).
//
// The fabric is a value, not shared state: it is built once from each
// server's encoded regions (NIC.Encode, the server job's recorded output)
// and only read afterwards, so it needs no lock and the server's output
// is an ordinary, resumable artifact.
//
// The paper notes that functional simulation lacks a network model (§VI);
// this package is therefore only wired into the cycle-exact simulator,
// while the functional Spike golden model emulates remote memory locally.
package netsim

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Config sets the fabric timing model.
type Config struct {
	// LatencyCycles is the one-way propagation latency per message.
	LatencyCycles uint64
	// BytesPerCycle is the per-link bandwidth.
	BytesPerCycle uint64
}

// DefaultConfig models a low-latency datacenter link: 200-cycle propagation,
// 8 bytes/cycle.
func DefaultConfig() Config {
	return Config{LatencyCycles: 200, BytesPerCycle: 8}
}

// Fabric is the read-only memory the servers of one simulated cluster
// registered, by node. Nothing writes it after New, so nodes simulating in
// parallel read it without coordination.
type Fabric struct {
	cfg     Config
	regions map[string][]region
}

type region struct {
	base uint64
	data []byte
}

// New builds the fabric from each server node's encoded regions, keeping
// their bytes (the caller does not modify them afterwards). An encoding
// that does not decode fails with the node's name.
func New(cfg Config, servers map[string][]byte) (*Fabric, error) {
	if cfg.BytesPerCycle == 0 {
		cfg.BytesPerCycle = 1
	}
	f := &Fabric{cfg: cfg, regions: map[string][]region{}}
	for node, enc := range servers {
		regions, err := decode(enc)
		if err != nil {
			return nil, fmt.Errorf("netsim: regions of node %q: %w", node, err)
		}
		f.regions[node] = regions
	}
	return f, nil
}

// RDMARead fetches n bytes at addr from the node's registered memory,
// returning the data and the modeled latency in cycles: a round trip plus
// n bytes at the link's bandwidth.
func (f *Fabric) RDMARead(node string, addr uint64, n int) ([]byte, uint64, error) {
	for _, r := range f.regions[node] {
		if addr >= r.base && addr+uint64(n) <= r.base+uint64(len(r.data)) {
			off := addr - r.base
			out := append([]byte(nil), r.data[off:off+uint64(n)]...)
			return out, 2*f.cfg.LatencyCycles + uint64(n)/f.cfg.BytesPerCycle, nil
		}
	}
	return nil, 0, fmt.Errorf("netsim: node %q has no registered region covering [%#x,%#x)", node, addr, addr+uint64(n))
}

// encode is the canonical form of a region list: the regions sorted by
// base (ties keep registration order), each a little-endian uint64 base
// and uint64 length followed by its bytes.
func encode(regions []region) []byte {
	sorted := append([]region(nil), regions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].base < sorted[j].base })
	var out []byte
	for _, r := range sorted {
		out = binary.LittleEndian.AppendUint64(out, r.base)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(r.data)))
		out = append(out, r.data...)
	}
	return out
}

// decode is encode's inverse. It accepts only the canonical form: whole
// records, non-empty regions that do not wrap the address space, in base
// order.
func decode(enc []byte) ([]region, error) {
	var regions []region
	for len(enc) > 0 {
		if len(enc) < 16 {
			return nil, fmt.Errorf("truncated record header (%d bytes)", len(enc))
		}
		base, size := binary.LittleEndian.Uint64(enc), binary.LittleEndian.Uint64(enc[8:])
		enc = enc[16:]
		switch {
		case size == 0:
			return nil, fmt.Errorf("empty region at %#x", base)
		case size > uint64(len(enc)):
			return nil, fmt.Errorf("region at %#x claims %d bytes, %d left", base, size, len(enc))
		case base+size < base:
			return nil, fmt.Errorf("region at %#x wraps the address space", base)
		case len(regions) > 0 && base < regions[len(regions)-1].base:
			return nil, fmt.Errorf("region at %#x out of base order", base)
		}
		regions = append(regions, region{base: base, data: enc[:size:size]})
		enc = enc[size:]
	}
	return regions, nil
}
