package cache

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// refCache is the straightforward cache the optimised Cache replaced,
// kept as the differential oracle: per-set slices, a way search on every
// access, an LRU stamp on every hit, a clock of its own. Cache must match
// it on every hit/miss, on the counters and on Save() bytes.
type refCache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     [][]uint64
	valid    [][]bool
	lru      [][]uint64
	clock    uint64

	Hits   uint64
	Misses uint64
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &refCache{cfg: cfg, sets: sets}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c
}

func refLog2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func (c *refCache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & uint64(c.sets-1))
	tag := line >> uint(refLog2(c.sets))
	c.clock++
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.clock
			c.Hits++
			return true
		}
	}
	victim := 0
	for w := 1; w < c.cfg.Ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.clock
	c.Misses++
	return false
}

func (c *refCache) Reset() {
	for i := range c.valid {
		for w := range c.valid[i] {
			c.valid[i][w] = false
			c.lru[i][w] = 0
		}
	}
	c.clock, c.Hits, c.Misses = 0, 0, 0
}

func (c *refCache) Save() ([]byte, error) {
	st := state{
		Tags:   make([][]uint64, len(c.tags)),
		Valid:  make([][]bool, len(c.valid)),
		LRU:    make([][]uint64, len(c.lru)),
		Clock:  c.clock,
		Hits:   c.Hits,
		Misses: c.Misses,
	}
	for i := range c.tags {
		st.Tags[i] = append([]uint64(nil), c.tags[i]...)
		st.Valid[i] = append([]bool(nil), c.valid[i]...)
		st.LRU[i] = append([]uint64(nil), c.lru[i]...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore trusts the shapes: the differential tests only hand it bytes
// saved by an identically configured cache.
func (c *refCache) Restore(data []byte) error {
	var st state
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	for i := range st.Tags {
		copy(c.tags[i], st.Tags[i])
		copy(c.valid[i], st.Valid[i])
		copy(c.lru[i], st.LRU[i])
	}
	c.clock, c.Hits, c.Misses = st.Clock, st.Hits, st.Misses
	return nil
}

// diffCache drives a fresh optimised cache and a fresh reference through
// addrs and fails on the first differing hit/miss. At saveAt both are
// saved, the bytes compared, and each continues in a fresh instance
// restored from the *other's* bytes; at resetAt both are Reset.
func diffCache(t testing.TB, cfg Config, addrs []uint64, saveAt, resetAt int) {
	t.Helper()
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	sameBytes := func(when string) ([]byte, []byte) {
		ob, err := opt.Save()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ref.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ob, rb) {
			t.Fatalf("%s: Save bytes differ", when)
		}
		if opt.Hits != ref.Hits || opt.Misses != ref.Misses {
			t.Fatalf("%s: counters %d/%d, reference %d/%d", when, opt.Hits, opt.Misses, ref.Hits, ref.Misses)
		}
		return ob, rb
	}
	for i, a := range addrs {
		if i == saveAt {
			ob, rb := sameBytes("mid-stream")
			opt, _ = New(cfg)
			ref = newRefCache(cfg)
			if err := opt.Restore(rb); err != nil {
				t.Fatal(err)
			}
			if err := ref.Restore(ob); err != nil {
				t.Fatal(err)
			}
		}
		if i == resetAt {
			opt.Reset()
			ref.Reset()
			sameBytes("after Reset")
		}
		if got, want := opt.Access(a), ref.Access(a); got != want {
			t.Fatalf("access %d (%#x): optimised hit=%v, reference hit=%v", i, a, got, want)
		}
	}
	sameBytes("end of stream")
}

// mixedAddrs interleaves what the simulator feeds a cache: sequential
// runs inside a line (the memo's case), strided sweeps, hot spots that
// conflict in one set, and far random addresses.
func mixedAddrs(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, 0, n)
	pc := uint64(0x1000)
	for len(out) < n {
		switch rng.Intn(5) {
		case 0: // straight-line fetch
			for k := rng.Intn(40); k > 0; k-- {
				out = append(out, pc)
				pc += 4
			}
		case 1: // taken branch
			pc = 0x1000 + uint64(rng.Intn(1<<12))*4
			out = append(out, pc)
		case 2: // same-set conflict
			out = append(out, uint64(rng.Intn(12))<<14|0x80)
		case 3: // strided sweep
			base, stride := uint64(rng.Intn(1<<20)), uint64(1)<<uint(rng.Intn(9))
			for k := 0; k < 16; k++ {
				out = append(out, base+uint64(k)*stride)
			}
		default: // anywhere, including the top of the address space
			out = append(out, rng.Uint64()>>uint(rng.Intn(64)), ^uint64(0)-uint64(rng.Intn(4)))
		}
	}
	return out[:n]
}

// TestCacheMatchesReference locks Cache ≡ refCache across geometries,
// with a Save→Restore into fresh instances and a Reset mid-stream.
func TestCacheMatchesReference(t *testing.T) {
	seed := int64(0)
	for _, ways := range []int{1, 2, 4, 8} {
		for _, lineBytes := range []int{1, 16, 32, 64, 128} {
			for _, sets := range []int{1, 4, 64} {
				cfg := Config{SizeBytes: sets * ways * lineBytes, LineBytes: lineBytes, Ways: ways}
				seed++
				addrs := mixedAddrs(seed, 30000)
				diffCache(t, cfg, addrs, 11000, 23000)
			}
		}
	}
}

// TestSaveDoesNotDisturb: Save settles the memo's deferred stamp; it must
// not change what later accesses do.
func TestSaveDoesNotDisturb(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	addrs := mixedAddrs(9, 5000)
	a, _ := New(cfg)
	b, _ := New(cfg)
	for i, x := range addrs {
		if i%7 == 0 {
			if _, err := a.Save(); err != nil {
				t.Fatal(err)
			}
		}
		if a.Access(x) != b.Access(x) {
			t.Fatalf("access %d diverged after a Save", i)
		}
	}
	as, _ := a.Save()
	bs, _ := b.Save()
	if !bytes.Equal(as, bs) {
		t.Error("final Save bytes differ")
	}
}

// TestRestoreIntoUsedInstance: Restore must drop the same-line memo. The
// target's memo names a line the restored state does not hold.
func TestRestoreIntoUsedInstance(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 16, Ways: 2}
	empty, _ := New(cfg)
	snap, err := empty.Save()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(cfg)
	c.Access(0x40)
	c.Access(0x44) // memo hit: a stamp is pending
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if c.Access(0x48) {
		t.Error("access hit through a memo left over from before Restore")
	}
	// And against the oracle from a warm snapshot, mid-run on both sides.
	addrs := mixedAddrs(4, 20000)
	opt, _ := New(cfg)
	ref := newRefCache(cfg)
	for _, a := range addrs[:8000] {
		opt.Access(a)
		ref.Access(a)
	}
	warm, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs[8000:12000] {
		opt.Access(a)
	}
	if err := opt.Restore(warm); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs[8000:] {
		if got, want := opt.Access(a), ref.Access(a); got != want {
			t.Fatalf("access %d after restore: optimised hit=%v, reference hit=%v", i, got, want)
		}
	}
	ob, _ := opt.Save()
	rb, _ := ref.Save()
	if !bytes.Equal(ob, rb) {
		t.Error("Save bytes differ after restoring into a used instance")
	}
}

func TestRestoreRejectsInconsistentClock(t *testing.T) {
	c, _ := New(Config{SizeBytes: 128, LineBytes: 16, Ways: 2})
	ref := newRefCache(Config{SizeBytes: 128, LineBytes: 16, Ways: 2})
	ref.Access(0x40)
	ref.clock += 3
	data, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(data); err == nil {
		t.Error("restore accepted a clock that is not hits+misses")
	}
}

func FuzzCacheVsReference(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint16(3), []byte{0, 0, 0, 4, 0, 8, 1, 0, 0, 0, 2, 0, 1, 0})
	f.Add(uint8(3), uint8(0), uint16(100), bytes.Repeat([]byte{0x10, 0x00, 0x10, 0x04, 0x50, 0x00, 0x90, 0x00}, 64))
	seed := make([]byte, 0, 4096)
	for _, a := range mixedAddrs(1, 2048) {
		seed = append(seed, byte(a>>8), byte(a))
	}
	f.Add(uint8(2), uint8(3), uint16(1000), seed)
	f.Fuzz(func(t *testing.T, waysSel, lineSel uint8, saveAt uint16, data []byte) {
		ways := 1 << (waysSel % 4)
		lineBytes := 16 << (lineSel % 4)
		cfg := Config{SizeBytes: 4 * ways * lineBytes, LineBytes: lineBytes, Ways: ways}
		addrs := make([]uint64, len(data)/2)
		for i := range addrs {
			addrs[i] = uint64(data[2*i])<<8 | uint64(data[2*i+1])
		}
		diffCache(t, cfg, addrs, int(saveAt), int(saveAt)*2+1)
	})
}
