package netsim

import (
	"bytes"
	"strings"
	"testing"
)

// fabricOf builds a fabric in which node registered the given regions, in
// that order.
func fabricOf(t *testing.T, cfg Config, node string, regions ...region) *Fabric {
	t.Helper()
	f, err := New(cfg, map[string][]byte{node: encode(regions)})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRDMARead(t *testing.T) {
	mem := make([]byte, 4096)
	for i := range mem {
		mem[i] = byte(i)
	}
	f := fabricOf(t, DefaultConfig(), "server", region{0x100000, mem})

	data, lat, err := f.RDMARead("server", 0x100010, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, mem[0x10:0x20]) {
		t.Error("read wrong data")
	}
	if lat != 2*200+16/8 {
		t.Errorf("latency = %d", lat)
	}
	// The caller owns what it read: changing it leaves the fabric as it was.
	data[0] = 0xff
	if again, _, _ := f.RDMARead("server", 0x100010, 1); again[0] != 0x10 {
		t.Errorf("fabric byte after the reader changed its copy = %#x, want 0x10", again[0])
	}
}

func TestLatencyScalesWithSize(t *testing.T) {
	f := fabricOf(t, Config{LatencyCycles: 100, BytesPerCycle: 4}, "s", region{0, make([]byte, 8192)})
	_, small, _ := f.RDMARead("s", 0, 64)
	_, large, _ := f.RDMARead("s", 0, 4096)
	if large <= small {
		t.Errorf("latency should scale: %d vs %d", small, large)
	}
	if small != 200+16 || large != 200+1024 {
		t.Errorf("latencies = %d, %d", small, large)
	}
}

func TestUnknownNodeAndRange(t *testing.T) {
	f := fabricOf(t, DefaultConfig(), "s", region{0x1000, make([]byte, 64)})
	if _, _, err := f.RDMARead("nobody", 0x1000, 8); err == nil {
		t.Error("expected error for unknown node")
	}
	if _, _, err := f.RDMARead("s", 0x1040, 8); err == nil {
		t.Error("expected error for out-of-range read")
	}
	if _, _, err := f.RDMARead("s", 0xfff, 8); err == nil {
		t.Error("expected error for straddling read")
	}
	if _, _, err := f.RDMARead("s", 0x1038, 16); err == nil {
		t.Error("expected error for a read past the region's end")
	}
}

func TestMultipleRegions(t *testing.T) {
	f := fabricOf(t, DefaultConfig(), "s", region{0x2000, []byte{2}}, region{0x1000, []byte{1}})
	for addr, want := range map[uint64]byte{0x1000: 1, 0x2000: 2} {
		d, _, err := f.RDMARead("s", addr, 1)
		if err != nil || d[0] != want {
			t.Errorf("read at %#x: %v %v, want %d", addr, d, err, want)
		}
	}
}

func TestZeroBandwidthDefaults(t *testing.T) {
	f := fabricOf(t, Config{LatencyCycles: 10}, "s", region{0, make([]byte, 64)})
	if _, _, err := f.RDMARead("s", 0, 8); err != nil {
		t.Errorf("zero bandwidth config should default sanely: %v", err)
	}
}

// TestEncodingIsCanonical: one set of regions has one encoding, whatever
// order they were registered in, and it decodes back to them.
func TestEncodingIsCanonical(t *testing.T) {
	a, b := region{0x1000, []byte{1, 2}}, region{0x3000, []byte{3}}
	enc := encode([]region{b, a})
	if !bytes.Equal(enc, encode([]region{a, b})) {
		t.Fatal("registration order changed the encoding")
	}
	want := []byte{
		0x00, 0x10, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 2,
		0x00, 0x30, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3,
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding = %x, want %x", enc, want)
	}
	got, err := decode(enc)
	if err != nil || len(got) != 2 || got[0].base != 0x1000 || !bytes.Equal(got[1].data, []byte{3}) {
		t.Errorf("decode = %+v, %v", got, err)
	}
	if got, err := decode(nil); err != nil || len(got) != 0 {
		t.Errorf("empty encoding = %+v, %v, want no regions", got, err)
	}
}

// TestUndecodableRegionsNameTheNode: every malformed encoding is refused,
// and the error says whose it was.
func TestUndecodableRegionsNameTheNode(t *testing.T) {
	good := encode([]region{{0x1000, []byte{1}}, {0x2000, []byte{2}}})
	swapped := append(encode([]region{{0x2000, []byte{2}}}), encode([]region{{0x1000, []byte{1}}})...)
	empty := make([]byte, 16)
	wraps := encode([]region{{^uint64(0), []byte{1}}})
	for name, enc := range map[string][]byte{
		"truncated header": good[:10],
		"short body":       good[:len(good)-1],
		"out of order":     swapped,
		"empty region":     empty,
		"wraps":            wraps,
	} {
		_, err := New(DefaultConfig(), map[string][]byte{"srv": enc})
		if err == nil || !strings.Contains(err.Error(), `"srv"`) {
			t.Errorf("%s: err = %v, want a decode error naming srv", name, err)
		}
	}
}
