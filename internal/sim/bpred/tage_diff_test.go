package bpred

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func mustTage(t testing.TB, cfg TageConfig) *Tage {
	t.Helper()
	p, err := NewTage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tageDiffConfigs are the geometries the oracle comparison covers: the
// default, the small tables that age every few hundred branches, a fold
// whose history is shorter than its width, one that is an exact multiple
// of it, and a single-table predictor.
var tageDiffConfigs = []TageConfig{
	DefaultTageConfig(),
	{BaseBits: 6, TableBits: 5, TagBits: 7, HistLengths: []uint{3, 9, 27}},
	{BaseBits: 4, TableBits: 4, TagBits: 8, HistLengths: []uint{2, 8, 16, 32, 64}},
	{BaseBits: 1, TableBits: 1, TagBits: 2, HistLengths: []uint{1}},
	{BaseBits: 8, TableBits: 6, TagBits: 12, HistLengths: []uint{6, 12, 300}},
}

// learnableStream gives each PC its own noisy periodic pattern, mostly
// in runs of one PC: history tables learn the patterns (usefulness
// climbs), the noise and the colliding contexts keep mispredicting into
// full tables (allocation fails, usefulness ages).
func learnableStream(seed int64, n, pcs int) []branch {
	rng := rand.New(rand.NewSource(seed))
	type pattern struct {
		bits []bool
		pos  int
	}
	pats := make([]pattern, pcs)
	for i := range pats {
		pats[i].bits = make([]bool, 2+rng.Intn(30))
		for j := range pats[i].bits {
			pats[i].bits[j] = rng.Intn(2) == 0
		}
	}
	out := make([]branch, n)
	for i := range out {
		k := (i / 64) % pcs
		if i%4 == 0 {
			k = rng.Intn(pcs)
		}
		p := &pats[k]
		taken := p.bits[p.pos]
		p.pos = (p.pos + 1) % len(p.bits)
		if rng.Intn(16) == 0 {
			taken = !taken
		}
		out[i] = branch{pc: 0x1000 + uint64(k)*4, taken: taken}
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// diffTage drives opt and ref through stream and fails on the first
// differing prediction. The optimised side alternates between the
// Predict/Update pair and the fused PredictUpdate. At saveAt both are
// saved, the bytes compared, and each continues in a fresh instance
// restored from the *other's* bytes. It returns the reference's ageing
// sweep counts at the save point and at the end.
func diffTage(t testing.TB, cfg TageConfig, opt *Tage, ref *refTage, stream []branch, saveAt int) (atSave, total int) {
	t.Helper()
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
			t.Fatalf("%s: Save bytes differ (optimised %d bytes, reference %d)", when, len(ob), len(rb))
		}
		return ob, rb
	}
	for i, br := range stream {
		if i == saveAt {
			ob, rb := sameBytes("mid-stream")
			atSave = ref.sweeps
			opt, ref = mustTage(t, cfg), newRefTage(cfg)
			ref.sweeps = atSave
			if err := opt.Restore(rb); err != nil {
				t.Fatal(err)
			}
			if err := ref.Restore(ob); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Predict(br.pc)
		ref.Update(br.pc, br.taken)
		var got bool
		if i%2 == 0 {
			got = opt.PredictUpdate(br.pc, br.taken)
		} else {
			got = opt.Predict(br.pc)
			opt.Update(br.pc, br.taken)
		}
		if got != want {
			t.Fatalf("branch %d (pc %#x): optimised predicts %v, reference %v", i, br.pc, got, want)
		}
	}
	sameBytes("end of stream")
	return atSave, ref.sweeps
}

// TestTageMatchesReference locks Tage ≡ refTage on predictions and Save
// bytes across geometries, over streams long enough that usefulness ages
// several times on each side of a mid-stream Save→Restore.
func TestTageMatchesReference(t *testing.T) {
	for ci, cfg := range tageDiffConfigs {
		n := 60000
		if cfg.TableBits >= 6 {
			n = 300000 // larger tables age less often
		}
		if cfg.TableBits >= 10 {
			n = 1600000
		}
		stream := learnableStream(int64(100+ci), n, 48)
		atSave, total := diffTage(t, cfg, mustTage(t, cfg), newRefTage(cfg), stream, n/2)
		if atSave < 2 || total-atSave < 2 {
			t.Errorf("config %d: %d ageing sweeps before the save, %d after; stream does not exercise lazy ageing",
				ci, atSave, total-atSave)
		}
	}
}

// TestTageStandaloneUpdate covers Update without a preceding Predict and
// with a Predict for a different pc, which recompute the lookup.
func TestTageStandaloneUpdate(t *testing.T) {
	cfg := tageDiffConfigs[1]
	opt, ref := mustTage(t, cfg), newRefTage(cfg)
	for i, br := range learnableStream(7, 20000, 32) {
		switch i % 3 {
		case 0:
			opt.Update(br.pc, br.taken)
			ref.Update(br.pc, br.taken)
		case 1:
			opt.Predict(br.pc ^ 0x40)
			ref.Predict(br.pc ^ 0x40)
			opt.Update(br.pc, br.taken)
			ref.Update(br.pc, br.taken)
		default:
			if got, want := opt.Predict(br.pc), ref.Predict(br.pc); got != want {
				t.Fatalf("branch %d: optimised predicts %v, reference %v", i, got, want)
			}
			opt.Update(br.pc, br.taken)
			ref.Update(br.pc, br.taken)
		}
	}
	ob, _ := opt.Save()
	rb, _ := ref.Save()
	if !bytes.Equal(ob, rb) {
		t.Error("Save bytes differ after standalone updates")
	}
}

// TestTageEpochWrap starts the lazy-ageing epoch just below the stamp
// width's limit, so the stream crosses the settle-and-restart path.
func TestTageEpochWrap(t *testing.T) {
	cfg := tageDiffConfigs[1]
	opt, ref := mustTage(t, cfg), newRefTage(cfg)
	opt.epoch = math.MaxUint16 - 2
	for i := range opt.entries {
		opt.entries[i].stamp = opt.epoch
	}
	_, sweeps := diffTage(t, cfg, opt, ref, learnableStream(11, 60000, 48), -1)
	if sweeps < 6 {
		t.Fatalf("only %d ageing sweeps; epoch never wrapped", sweeps)
	}
}

// TestTageRestoreIntoUsedInstance: Restore must leave nothing of the
// instance's own past behind — lookup bookkeeping, ageing epoch, stamps.
// The target has aged many times since the snapshot it restores.
func TestTageRestoreIntoUsedInstance(t *testing.T) {
	cfg := tageDiffConfigs[1]
	stream := learnableStream(21, 90000, 48)
	opt, ref := mustTage(t, cfg), newRefTage(cfg)
	run := func(from, to int) {
		t.Helper()
		for i, br := range stream[from:to] {
			want := ref.Predict(br.pc)
			ref.Update(br.pc, br.taken)
			if got := opt.PredictUpdate(br.pc, br.taken); got != want {
				t.Fatalf("branch %d: optimised predicts %v, reference %v", from+i, got, want)
			}
		}
	}
	run(0, 30000)
	snap, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	sweepsAtSnap := ref.sweeps
	run(30000, 60000)
	if ref.sweeps-sweepsAtSnap < 2 || opt.epoch == 0 {
		t.Fatalf("target aged %d times (epoch %d) since the snapshot; want a stale epoch to restore over", ref.sweeps-sweepsAtSnap, opt.epoch)
	}
	opt.Predict(stream[0].pc) // leave a Predict pending across the Restore
	if err := opt.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ref = newRefTage(cfg)
	if err := ref.Restore(snap); err != nil {
		t.Fatal(err)
	}
	run(30000, 90000)
	ob, _ := opt.Save()
	rb, _ := ref.Save()
	if !bytes.Equal(ob, rb) {
		t.Error("Save bytes differ after restoring into a used instance")
	}
}

// TestTageResetMatchesFresh: Reset clears in place, so a trained-then-
// reset predictor must be indistinguishable from a new one.
func TestTageResetMatchesFresh(t *testing.T) {
	cfg := tageDiffConfigs[2]
	opt := mustTage(t, cfg)
	stream := learnableStream(5, 30000, 48)
	for _, br := range stream {
		opt.PredictUpdate(br.pc, br.taken)
	}
	opt.Reset()
	diffTage(t, cfg, opt, newRefTage(cfg), stream, -1)
}

func TestNewTageRejectsBadConfig(t *testing.T) {
	ok := DefaultTageConfig()
	with := func(edit func(*TageConfig)) TageConfig {
		c := ok
		c.HistLengths = append([]uint(nil), ok.HistLengths...)
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  TageConfig
		ok   bool
	}{
		{"default", ok, true},
		{"minimal", TageConfig{BaseBits: 1, TableBits: 1, TagBits: 2, HistLengths: []uint{1}}, true},
		{"tag bits 1 (zero-width second tag fold)", with(func(c *TageConfig) { c.TagBits = 1 }), false},
		{"tag bits 0", with(func(c *TageConfig) { c.TagBits = 0 }), false},
		{"tag bits 33", with(func(c *TageConfig) { c.TagBits = 33 }), false},
		{"table bits 0", with(func(c *TageConfig) { c.TableBits = 0 }), false},
		{"table bits 40", with(func(c *TageConfig) { c.TableBits = 40 }), false},
		{"base bits 0", with(func(c *TageConfig) { c.BaseBits = 0 }), false},
		{"base bits 64", with(func(c *TageConfig) { c.BaseBits = 64 }), false},
		{"no history lengths", with(func(c *TageConfig) { c.HistLengths = nil }), false},
		{"zero history length", with(func(c *TageConfig) { c.HistLengths = []uint{0, 4} }), false},
		{"descending", with(func(c *TageConfig) { c.HistLengths = []uint{15, 5} }), false},
		{"repeated", with(func(c *TageConfig) { c.HistLengths = []uint{5, 5} }), false},
	}
	for _, tc := range cases {
		p, err := NewTage(tc.cfg)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		// An accepted config must survive use (the rejected ones used to
		// panic on the first Update or in Reset).
		for i := 0; i < 200; i++ {
			p.PredictUpdate(uint64(i%7)*4, i%3 == 0)
		}
		p.Reset()
	}
}

func FuzzTageVsReference(f *testing.F) {
	f.Add(uint8(1), uint16(40), []byte("\x01\x02\x03\x81\x80\x7f\x10\x11\x10\x11\x10\x11"))
	f.Add(uint8(3), uint16(0), bytes.Repeat([]byte{0x05, 0x04, 0xfe, 0x33}, 300))
	seed := make([]byte, 6000)
	for i, br := range learnableStream(3, len(seed), 48) {
		seed[i] = byte(br.pc>>2)<<1 | byte(b2u(br.taken))
	}
	f.Add(uint8(2), uint16(3000), seed)
	f.Fuzz(func(t *testing.T, sel uint8, saveAt uint16, data []byte) {
		// Skip the default geometry: small tables reach ageing within a
		// fuzz-sized input.
		cfg := tageDiffConfigs[1+int(sel)%(len(tageDiffConfigs)-1)]
		stream := make([]branch, len(data))
		for i, b := range data {
			stream[i] = branch{pc: 0x1000 + uint64(b>>1)*4, taken: b&1 == 1}
		}
		diffTage(t, cfg, mustTage(t, cfg), newRefTage(cfg), stream, int(saveAt))
	})
}
