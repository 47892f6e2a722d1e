package workgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestRecipeSourceDigests pins the emitted text byte for byte: one kernel
// of every kind, the 64 Ki-node pointer chase the benchmark assembles, and
// a random recipe, on two seeds. The verify farm files each recipe's
// source in the CAS under its digest, so an emitter rewrite that moves one
// byte changes every farm key. The digests are the first 8 bytes of the
// SHA-256 of the text as fmt.Sprintf-per-line emitters wrote it.
func TestRecipeSourceDigests(t *testing.T) {
	want := map[string]string{
		"loop-heavy/1":         "2bc5a2a8c95982d1",
		"loop-heavy/2":         "437538127b9fc184",
		"pattern-branch/1":     "81469f3e9f5ac134",
		"pattern-branch/2":     "c770b165ef926218",
		"pointer-chase-64Ki/1": "1982f2be5ed25996",
		"pointer-chase-64Ki/2": "82bbc743b9ea150d",
		"pointer-chase/1":      "067704d74a6436a3",
		"pointer-chase/2":      "9080939310af1428",
		"alu/1":                "5f468ce985189fb5",
		"alu/2":                "1457e7bf91eca647",
		"divide/1":             "ed678b5eed771631",
		"divide/2":             "d3b57b272d76e8cd",
		"store-fill/1":         "6ef305d6877a949e",
		"store-fill/2":         "46ce94e79eda9987",
		"stream-sum/1":         "3a961dafd8ca751a",
		"stream-sum/2":         "bb4b8ffeb742d838",
		"random/1":             "9fcc4a9d2c8c7253",
		"random/2":             "0b00141d0e99fc34",
	}
	digest := func(src string) string {
		sum := sha256.Sum256([]byte(src))
		return hex.EncodeToString(sum[:8])
	}
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		kernels := map[string]Kernel{
			"pointer-chase-64Ki": {Kind: KPointerChase, A: 1000, B: 64 << 10, Seed: seed},
		}
		for kind := KernelKind(0); kind < NumKernelKinds; kind++ {
			kernels[kind.String()] = KernelOfKind(rng, kind)
		}
		for name, k := range kernels {
			key := fmt.Sprintf("%s/%d", name, seed)
			src := Recipe{Name: name, Seed: seed, Kernels: []Kernel{k}}.Source()
			if got := digest(src); got != want[key] {
				t.Errorf("%s: source digest %s, want %s", key, got, want[key])
			}
		}
		key := fmt.Sprintf("random/%d", seed)
		if got := digest(RandomSource(seed)); got != want[key] {
			t.Errorf("%s: source digest %s, want %s", key, got, want[key])
		}
	}
}
