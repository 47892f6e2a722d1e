package netsim

import (
	"bytes"
	"testing"

	"firemarshal/internal/sim"
)

func TestNICRegisterFlow(t *testing.T) {
	nic := &NIC{}
	m := sim.NewMachine()
	m.Mem.WriteBytes(0x100000, []byte{9, 8, 7, 6})

	store := func(off, val uint64) error {
		_, err := nic.Store(m, NICBase+off, 8, val)
		return err
	}
	if err := store(0x00, 0x100000); err != nil {
		t.Fatal(err)
	}
	if err := store(0x08, 4); err != nil {
		t.Fatal(err)
	}
	if err := store(0x10, 1); err != nil {
		t.Fatal(err)
	}
	count, _, err := nic.Load(m, NICBase+0x18, 8)
	if err != nil || count != 1 {
		t.Errorf("count = %d, %v", count, err)
	}
	// The region is snapshotted at register time: later guest stores do
	// not reach the fabric.
	m.Mem.WriteBytes(0x100000, []byte{0})
	fabric, err := New(DefaultConfig(), map[string][]byte{"n0": nic.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := fabric.RDMARead("n0", 0x100000, 4)
	if err != nil || !bytes.Equal(data, []byte{9, 8, 7, 6}) {
		t.Errorf("registered data = %v, %v", data, err)
	}
}

func TestNICErrors(t *testing.T) {
	m := sim.NewMachine()
	nic := &NIC{}
	// Zero size.
	if _, err := nic.Store(m, NICBase+0x10, 8, 1); err == nil {
		t.Error("zero-size register must fail")
	}
	// A region past the top of the address space.
	nic.Store(m, NICBase+0x00, 8, ^uint64(0)-1)
	nic.Store(m, NICBase+0x08, 8, 4)
	if _, err := nic.Store(m, NICBase+0x10, 8, 1); err == nil {
		t.Error("wrapping register must fail")
	}
	// Unknown registers.
	if _, err := nic.Store(m, NICBase+0x18, 8, 1); err == nil {
		t.Error("store to count register must fail")
	}
	if _, _, err := nic.Load(m, NICBase+0x00, 8); err == nil {
		t.Error("load from base register must fail")
	}
	if len(nic.Encode()) != 0 {
		t.Error("failed registers left regions behind")
	}
}

func TestNICContains(t *testing.T) {
	nic := &NIC{}
	// The range must cover the last register (0x18) and nothing beyond.
	if lo, hi := nic.AddrRange(); lo != NICBase || hi != NICBase+0x20 {
		t.Errorf("NIC claims [%#x,%#x), want [%#x,%#x)", lo, hi, uint64(NICBase), uint64(NICBase+0x20))
	}
	if nic.Name() != "icenic" {
		t.Error("name wrong")
	}
}
