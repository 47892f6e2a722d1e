package bpred

import (
	"testing"
)

// branchStream generates a deterministic pseudo-random branch trace.
func branchStream(n int) []struct {
	pc    uint64
	taken bool
} {
	out := make([]struct {
		pc    uint64
		taken bool
	}, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i].pc = 0x1000 + (x%64)*4
		out[i].taken = x&0x30 != 0 // biased, like real branches
	}
	return out
}

// TestSaveRestoreRoundTrip trains each predictor, snapshots mid-stream,
// and checks a restored fresh predictor produces the identical
// prediction sequence for the rest of the stream — the property resumed
// cycle-exact runs depend on.
func TestSaveRestoreRoundTrip(t *testing.T) {
	stream := branchStream(4096)
	mid := len(stream) / 2
	for _, name := range []string{"static", "bimodal", "gshare", "tage"} {
		t.Run(name, func(t *testing.T) {
			orig, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, br := range stream[:mid] {
				orig.Predict(br.pc)
				orig.Update(br.pc, br.taken)
			}
			saved, err := orig.Save()
			if err != nil {
				t.Fatal(err)
			}

			restored, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(saved); err != nil {
				t.Fatal(err)
			}
			for i, br := range stream[mid:] {
				want := orig.Predict(br.pc)
				got := restored.Predict(br.pc)
				if got != want {
					t.Fatalf("branch %d: restored predicts %v, original %v", i, got, want)
				}
				orig.Update(br.pc, br.taken)
				restored.Update(br.pc, br.taken)
			}
		})
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	small := NewBimodal(4)
	big := NewBimodal(12)
	st, err := small.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Restore(st); err == nil {
		t.Error("restore across table sizes did not fail")
	}
	tSmall := mustTage(t, TageConfig{BaseBits: 4, TableBits: 4, TagBits: 8, HistLengths: []uint{3, 9}})
	tBig := mustTage(t, DefaultTageConfig())
	ts, err := tSmall.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := tBig.Restore(ts); err == nil {
		t.Error("tage restore across configs did not fail")
	}
}
