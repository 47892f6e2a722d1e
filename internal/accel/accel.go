// Package accel models the machine-learning accelerator from the paper's
// education case study (§IV-C): students "optimize tiled convolution and
// matrix multiplication implementations for an RTL implementation of a
// machine learning accelerator integrated into a RISC-V SoC" (a
// Gemmini-style unit). The device performs C = A×B over int32 matrices in
// guest memory via MMIO, with a deterministic timing model in which the
// tiling factor controls scratchpad reuse: well-chosen tiles move far fewer
// bytes between memory and the scratchpad, which is exactly the quantity
// students tuned.
package accel

import (
	"encoding/binary"
	"fmt"

	"firemarshal/internal/sim"
)

// MMIOBase is the accelerator's device address.
const MMIOBase = 0x56000000

// MMIO register offsets. All registers are 8 bytes.
const (
	regM      = 0x00 // store: rows of A/C
	regN      = 0x08 // store: cols of B/C
	regK      = 0x10 // store: cols of A / rows of B
	regAddrA  = 0x18 // store: guest address of A (row-major int32)
	regAddrB  = 0x20 // store: guest address of B
	regAddrC  = 0x28 // store: guest address of C
	regTile   = 0x30 // store: square tile size (1 = untiled streaming)
	regStart  = 0x38 // store: any value starts the operation
	regStatus = 0x40 // load: 1 when last op completed
	regCycles = 0x48 // load: cycles consumed by last op
	regSize   = 0x50
)

// Config sets the accelerator's structural parameters.
type Config struct {
	// ScratchpadBytes bounds the working set of one tile
	// (three tile×tile int32 blocks must fit).
	ScratchpadBytes int
	// MACsPerCycle is the compute throughput.
	MACsPerCycle int
	// BytesPerCycle is the memory interface bandwidth.
	BytesPerCycle int
	// MaxDim bounds matrix dimensions.
	MaxDim int
}

// DefaultConfig models a 16×16 systolic array with a 64KiB scratchpad.
func DefaultConfig() Config {
	return Config{
		ScratchpadBytes: 64 << 10,
		MACsPerCycle:    256,
		BytesPerCycle:   16,
		MaxDim:          1024,
	}
}

// Device is the accelerator.
type Device struct {
	cfg Config

	m, n, k             uint64
	addrA, addrB, addrC uint64
	tile                uint64

	status     uint64
	lastCycles uint64

	// Ops counts completed operations.
	Ops uint64
}

// New creates the device.
func New(cfg Config) *Device {
	return &Device{cfg: cfg, tile: 1}
}

// Name implements sim.Device.
func (d *Device) Name() string { return "gemm-accel" }

// AddrRange implements sim.Device.
func (d *Device) AddrRange() (uint64, uint64) { return MMIOBase, MMIOBase + regSize }

// Load implements sim.Device.
func (d *Device) Load(m *sim.Machine, addr uint64, size int) (uint64, uint64, error) {
	switch addr - MMIOBase {
	case regStatus:
		return d.status, 0, nil
	case regCycles:
		return d.lastCycles, 0, nil
	default:
		return 0, 0, fmt.Errorf("accel: load from unknown register %#x", addr)
	}
}

// Store implements sim.Device.
func (d *Device) Store(m *sim.Machine, addr uint64, size int, val uint64) (uint64, error) {
	switch addr - MMIOBase {
	case regM:
		d.m = val
	case regN:
		d.n = val
	case regK:
		d.k = val
	case regAddrA:
		d.addrA = val
	case regAddrB:
		d.addrB = val
	case regAddrC:
		d.addrC = val
	case regTile:
		d.tile = val
	case regStart:
		return d.run(m)
	default:
		return 0, fmt.Errorf("accel: store to unknown register %#x", addr)
	}
	return 0, nil
}

// run executes the configured matmul and returns the modeled cycles as the
// store's stall cost.
func (d *Device) run(m *sim.Machine) (uint64, error) {
	d.status = 0
	if err := d.validate(); err != nil {
		return 0, err
	}
	M, N, K := int(d.m), int(d.n), int(d.k)

	a := readMatrix(m, d.addrA, M, K)
	b := readMatrix(m, d.addrB, K, N)
	c := make([]int32, M*N)
	for i := 0; i < M; i++ {
		for kk := 0; kk < K; kk++ {
			av := a[i*K+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < N; j++ {
				c[i*N+j] += av * b[kk*N+j]
			}
		}
	}
	writeMatrix(m, d.addrC, c)

	d.lastCycles = d.cost(M, N, K, int(d.tile))
	d.status = 1
	d.Ops++
	return d.lastCycles, nil
}

func (d *Device) validate() error {
	if d.m == 0 || d.n == 0 || d.k == 0 {
		return fmt.Errorf("accel: dimensions not configured (m=%d n=%d k=%d)", d.m, d.n, d.k)
	}
	max := uint64(d.cfg.MaxDim)
	if d.m > max || d.n > max || d.k > max {
		return fmt.Errorf("accel: dimension exceeds max %d", max)
	}
	if d.tile == 0 {
		return fmt.Errorf("accel: tile must be >= 1")
	}
	if d.tile > 1 {
		// Three tile blocks (A, B, C) must fit in the scratchpad.
		need := 3 * int(d.tile) * int(d.tile) * 4
		if need > d.cfg.ScratchpadBytes {
			return fmt.Errorf("accel: tile %d needs %d bytes of scratchpad (%d available)",
				d.tile, need, d.cfg.ScratchpadBytes)
		}
	}
	return nil
}

// cost models the cycle count: compute time plus memory traffic, where
// traffic depends on tiling. With tile T, each T×T block of C requires
// streaming K/T blocks of A and B, so A is read N/T times and B M/T times.
// T=1 degenerates to the worst case (no reuse).
func (d *Device) cost(m, n, k, tile int) uint64 {
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	t := tile
	trafficA := m * k * ceilDiv(n, t) // bytes/4
	trafficB := k * n * ceilDiv(m, t)
	trafficC := 2 * m * n
	bytes := 4 * (trafficA + trafficB + trafficC)
	memCycles := bytes / d.cfg.BytesPerCycle
	macs := m * n * k
	computeCycles := ceilDiv(macs, d.cfg.MACsPerCycle)
	// The array overlaps compute with loads; the slower side dominates,
	// plus a fixed start cost.
	cost := computeCycles
	if memCycles > cost {
		cost = memCycles
	}
	return uint64(cost) + 100
}

// LastCycles returns the modeled cycles of the last operation.
func (d *Device) LastCycles() uint64 { return d.lastCycles }

func readMatrix(m *sim.Machine, addr uint64, rows, cols int) []int32 {
	raw := m.Mem.ReadBytes(addr, rows*cols*4)
	out := make([]int32, rows*cols)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

func writeMatrix(m *sim.Machine, addr uint64, vals []int32) {
	raw := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(v))
	}
	m.Mem.WriteBytes(addr, raw)
}

var _ sim.Device = (*Device)(nil)
