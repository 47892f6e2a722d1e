// Package firmware models the supervisor binary interface firmware a
// RISC-V system boots through (§III-A.2): either OpenSBI or the Berkeley
// Boot Loader (bbl). The build step links the firmware with the compiled
// kernel into the final boot binary (Fig. 3) — the single artifact every
// simulator consumes. Bare-metal workloads use a raw executable payload
// instead of a kernel.
package firmware

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/kernel"
)

// Kinds of supported firmware.
const (
	KindOpenSBI = "opensbi"
	KindBBL     = "bbl"
)

// Versions reported by the firmware banners.
var versions = map[string]string{
	KindOpenSBI: "0.9",
	KindBBL:     "1.0.0",
}

// BootBinary is the complete boot artifact: firmware + payload.
type BootBinary struct {
	// Kind is the firmware implementation.
	Kind string
	// Version of the firmware.
	Version string
	// BuildArgs are the firmware build options (recorded for identity).
	BuildArgs []string
	// Kernel is the Linux payload (nil for bare-metal binaries).
	Kernel *kernel.Image
	// BareExe is the raw MEX1 executable for bare-metal workloads.
	BareExe []byte
}

// Build links firmware of the given kind with a kernel payload.
func Build(kind string, args []string, kimg *kernel.Image) (*BootBinary, error) {
	if kind == "" {
		kind = KindOpenSBI
	}
	v, ok := versions[kind]
	if !ok {
		return nil, fmt.Errorf("firmware: unknown kind %q (want %s or %s)", kind, KindOpenSBI, KindBBL)
	}
	if kimg == nil {
		return nil, fmt.Errorf("firmware: nil kernel payload")
	}
	return &BootBinary{Kind: kind, Version: v, BuildArgs: args, Kernel: kimg}, nil
}

// BuildBare wraps a bare-metal executable (already linked by host-init)
// into a boot binary without firmware or kernel.
func BuildBare(exe []byte) *BootBinary {
	return &BootBinary{Kind: "bare", BareExe: exe}
}

// IsBare reports whether the binary is a bare-metal workload.
func (b *BootBinary) IsBare() bool { return b.Kernel == nil }

// Banner returns the console lines the firmware prints at reset.
func (b *BootBinary) Banner() []string {
	switch b.Kind {
	case KindOpenSBI:
		return []string{
			fmt.Sprintf("OpenSBI v%s", b.Version),
			"Platform Name       : firemarshal-sim,chipyard",
			"Boot HART ISA       : rv64im",
		}
	case KindBBL:
		return []string{fmt.Sprintf("bbl loader v%s", b.Version)}
	default:
		return nil
	}
}

// BootCostCycles models the firmware initialization time.
func (b *BootBinary) BootCostCycles() uint64 {
	switch b.Kind {
	case KindOpenSBI:
		return 90_000
	case KindBBL:
		return 60_000
	default:
		return 0
	}
}

// Hash fingerprints the boot binary.
func (b *BootBinary) Hash() string {
	parts := []string{b.Kind, b.Version, strings.Join(b.BuildArgs, "\x00")}
	if b.Kernel != nil {
		parts = append(parts, b.Kernel.Hash())
	}
	if b.BareExe != nil {
		parts = append(parts, hostutil.HashBytes(b.BareExe))
	}
	return hostutil.HashStrings(parts...)
}

type header struct {
	Kind      string   `json:"kind"`
	Version   string   `json:"version"`
	BuildArgs []string `json:"buildArgs,omitempty"`
	HasKernel bool     `json:"hasKernel"`
}

var magic = [4]byte{'M', 'B', 'B', '1'}

// Encode serializes the boot binary.
func (b *BootBinary) Encode() ([]byte, error) {
	hdr, err := json.Marshal(header{Kind: b.Kind, Version: b.Version, BuildArgs: b.BuildArgs, HasKernel: b.Kernel != nil})
	if err != nil {
		return nil, err
	}
	var payload []byte
	if b.Kernel != nil {
		payload, err = b.Kernel.Encode()
		if err != nil {
			return nil, err
		}
	} else {
		payload = b.BareExe
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(hdr)))
	buf.Write(n[:])
	buf.Write(hdr)
	buf.Write(payload)
	return buf.Bytes(), nil
}

// Decode parses a boot binary. It also accepts a raw MEX1 executable,
// treating it as a bare-metal workload — users may hard-code a boot binary
// "generally a bare-metal workload generated in host-init" (§III-B.4).
func Decode(data []byte) (*BootBinary, error) {
	if len(data) >= 4 && bytes.Equal(data[:4], []byte("MEX1")) {
		return BuildBare(data), nil
	}
	if len(data) < 8 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("firmware: bad boot binary magic")
	}
	// Compared in uint64, not as 8+int(hlen): that wraps on a 32-bit target.
	hlen := binary.LittleEndian.Uint32(data[4:8])
	if uint64(hlen) > uint64(len(data)-8) {
		return nil, fmt.Errorf("firmware: truncated boot binary header")
	}
	end := 8 + int(hlen)
	var hdr header
	if err := json.Unmarshal(data[8:end], &hdr); err != nil {
		return nil, fmt.Errorf("firmware: bad boot binary header: %w", err)
	}
	b := &BootBinary{Kind: hdr.Kind, Version: hdr.Version}
	if len(hdr.BuildArgs) > 0 {
		// An empty list decodes as the absent one Encode writes for it.
		b.BuildArgs = hdr.BuildArgs
	}
	payload := data[end:]
	if hdr.HasKernel {
		kimg, err := kernel.Decode(payload)
		if err != nil {
			return nil, err
		}
		b.Kernel = kimg
	} else {
		b.BareExe = append([]byte(nil), payload...)
	}
	return b, nil
}
