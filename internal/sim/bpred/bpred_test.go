package bpred

import (
	"math/rand"
	"testing"
)

// accuracy trains a predictor on a branch trace and returns the hit rate.
func accuracy(p Predictor, trace []struct {
	pc    uint64
	taken bool
}) float64 {
	hits := 0
	for _, br := range trace {
		if p.Predict(br.pc) == br.taken {
			hits++
		}
		p.Update(br.pc, br.taken)
	}
	return float64(hits) / float64(len(trace))
}

type branch = struct {
	pc    uint64
	taken bool
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter = %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter = %d, want 0", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	var trace []branch
	for i := 0; i < 1000; i++ {
		trace = append(trace, branch{pc: 0x1000, taken: true})
		trace = append(trace, branch{pc: 0x2000, taken: false})
	}
	acc := accuracy(NewBimodal(12), trace)
	if acc < 0.99 {
		t.Errorf("bimodal accuracy on biased branches = %.3f", acc)
	}
}

func TestBimodalFailsOnAlternating(t *testing.T) {
	// A strictly alternating branch defeats a bimodal counter (~50%) but
	// not history-based predictors.
	var trace []branch
	for i := 0; i < 4000; i++ {
		trace = append(trace, branch{pc: 0x1000, taken: i%2 == 0})
	}
	bim := accuracy(NewBimodal(12), trace)
	gsh := accuracy(NewGshare(12), trace)
	if bim > 0.7 {
		t.Errorf("bimodal should struggle on alternating branch, got %.3f", bim)
	}
	if gsh < 0.95 {
		t.Errorf("gshare should learn alternating pattern, got %.3f", gsh)
	}
}

func TestGshareLearnsShortPatterns(t *testing.T) {
	// Period-4 pattern: T T N T ...
	pattern := []bool{true, true, false, true}
	var trace []branch
	for i := 0; i < 8000; i++ {
		trace = append(trace, branch{pc: 0x1000, taken: pattern[i%len(pattern)]})
	}
	if acc := accuracy(NewGshare(12), trace); acc < 0.95 {
		t.Errorf("gshare accuracy on period-4 pattern = %.3f", acc)
	}
}

func TestTageLearnsLongPatterns(t *testing.T) {
	// Period-24 pattern exceeds gshare's effective history on a busy table
	// but fits TAGE's longer history tables.
	rng := rand.New(rand.NewSource(3))
	pattern := make([]bool, 24)
	for i := range pattern {
		pattern[i] = rng.Intn(2) == 0
	}
	var trace []branch
	for i := 0; i < 50000; i++ {
		trace = append(trace, branch{pc: 0x1000, taken: pattern[i%len(pattern)]})
	}
	tage := accuracy(mustTage(t, DefaultTageConfig()), trace)
	if tage < 0.95 {
		t.Errorf("tage accuracy on period-24 pattern = %.3f", tage)
	}
}

func TestTageBeatsGshareOnLongPeriodPattern(t *testing.T) {
	// A random period-64 pattern diluted by an interleaved always-taken
	// branch: the 12-bit gshare window sees only 6 informative bits (many
	// colliding contexts with conflicting outcomes) while TAGE's 130-length
	// history table captures the whole period.
	rng := rand.New(rand.NewSource(9))
	pattern := make([]bool, 64)
	for i := range pattern {
		pattern[i] = rng.Intn(2) == 0
	}
	var trace []branch
	for i := 0; i < 100000; i++ {
		trace = append(trace, branch{pc: 0x4000, taken: true})
		trace = append(trace, branch{pc: 0x1000, taken: pattern[i%64]})
	}
	gsh := accuracy(NewGshare(12), trace)
	tage := accuracy(mustTage(t, DefaultTageConfig()), trace)
	bim := accuracy(NewBimodal(12), trace)
	if tage <= gsh {
		t.Errorf("tage (%.4f) should beat gshare (%.4f) on long-period pattern", tage, gsh)
	}
	if gsh <= bim {
		t.Errorf("gshare (%.4f) should beat bimodal (%.4f)", gsh, bim)
	}
}

func TestPredictorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var trace []branch
	for i := 0; i < 20000; i++ {
		trace = append(trace, branch{pc: uint64(rng.Intn(64)) * 4, taken: rng.Intn(3) > 0})
	}
	for _, name := range []string{"bimodal", "gshare", "tage", "static"} {
		p1, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := New(name)
		a1 := accuracy(p1, trace)
		a2 := accuracy(p2, trace)
		if a1 != a2 {
			t.Errorf("%s: nondeterministic accuracy %.6f vs %.6f", name, a1, a2)
		}
	}
}

func TestResetRestoresState(t *testing.T) {
	var trace []branch
	for i := 0; i < 5000; i++ {
		trace = append(trace, branch{pc: 0x1000, taken: i%2 == 0})
	}
	p := mustTage(t, DefaultTageConfig())
	a1 := accuracy(p, trace)
	p.Reset()
	a2 := accuracy(p, trace)
	if a1 != a2 {
		t.Errorf("reset did not restore initial state: %.4f vs %.4f", a1, a2)
	}
}

func TestUnknownPredictor(t *testing.T) {
	if _, err := New("perceptron"); err == nil {
		t.Error("expected error for unknown predictor")
	}
}

func TestStaticTaken(t *testing.T) {
	p, _ := New("static")
	if !p.Predict(0x1234) {
		t.Error("static should predict taken")
	}
}

// TestFoldedRegisterConsistency: after every push each folded-history
// register equals an independent fold of the same window — outcome i
// branches ago contributes at bit i mod width.
func TestFoldedRegisterConsistency(t *testing.T) {
	fold := func(hist []uint64, histLen, width uint) uint64 {
		var f uint64
		for age := 0; age < int(histLen) && age < len(hist); age++ {
			f ^= hist[len(hist)-1-age] << (uint(age) % width)
		}
		return f
	}
	cases := []struct {
		tableBits, tagBits uint
		histLens           []uint
	}{
		{5, 6, []uint{13, 40}},   // ordinary; tag2 fold: 40 % 5 == 0
		{5, 11, []uint{10, 22}},  // histLen % width == 0 for index and both tags
		{15, 16, []uint{15, 16}}, // histLen == width
		{7, 9, []uint{3, 5}},     // histLen < width
		{1, 2, []uint{1, 2, 3}},  // smallest folds
		{10, 10, DefaultTageConfig().HistLengths},
		{24, 32, []uint{5, 300}}, // widest registers
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		p := mustTage(t, TageConfig{BaseBits: 2, TableBits: tc.tableBits, TagBits: tc.tagBits, HistLengths: tc.histLens})
		var hist []uint64 // oldest first
		for i := 0; i < 700; i++ {
			taken := rng.Intn(2) == 1
			p.pushHistory(taken)
			hist = append(hist, b2u(taken))
			for ti, hl := range tc.histLens {
				tb := &p.tables[ti]
				want := [3]uint64{fold(hist, hl, tc.tableBits), fold(hist, hl, tc.tagBits), fold(hist, hl, tc.tagBits-1)}
				if got := [3]uint64{tb.fIdx.value, tb.fTag1.value, tb.fTag2.value}; got != want {
					t.Fatalf("bits %d/%d, table %d (histLen %d), push %d: registers %#x, folds of window %#x",
						tc.tableBits, tc.tagBits, ti, hl, i, got, want)
				}
			}
		}
	}
}

func TestQuickTageNoPanic(t *testing.T) {
	// Fuzz: random pc/outcome sequences must never panic and stay in range.
	rng := rand.New(rand.NewSource(17))
	p := mustTage(t, TageConfig{BaseBits: 6, TableBits: 5, TagBits: 7, HistLengths: []uint{3, 9, 27}})
	for i := 0; i < 100000; i++ {
		pc := uint64(rng.Intn(1 << 16))
		p.Predict(pc)
		p.Update(pc, rng.Intn(2) == 0)
	}
	for _, e := range p.entries {
		if e.ctr < -4 || e.ctr > 3 {
			t.Fatalf("ctr out of range: %d", e.ctr)
		}
		if e.useful > 3 {
			t.Fatalf("useful out of range: %d", e.useful)
		}
	}
}

func BenchmarkGshare(b *testing.B) {
	p := NewGshare(12)
	for i := 0; i < b.N; i++ {
		pc := uint64(i%64) * 4
		p.Predict(pc)
		p.Update(pc, i%3 == 0)
	}
}

func BenchmarkTage(b *testing.B) {
	p := mustTage(b, DefaultTageConfig())
	for i := 0; i < b.N; i++ {
		pc := uint64(i%64) * 4
		p.Predict(pc)
		p.Update(pc, i%3 == 0)
	}
}

func BenchmarkTageFused(b *testing.B) {
	p := mustTage(b, DefaultTageConfig())
	for i := 0; i < b.N; i++ {
		p.PredictUpdate(uint64(i%64)*4, i%3 == 0)
	}
}
