// Package bpred implements the branch direction predictors used by the
// cycle-exact simulator: a bimodal table, a Gshare predictor (the BOOM v2
// baseline in the paper's SPEC2017 case study), and a TAGE predictor (the
// "more recent TAGE-based predictor" the case study compares against,
// §IV-B). All predictors are deterministic.
package bpred

import "fmt"

// Predictor predicts conditional branch directions.
type Predictor interface {
	// Name identifies the predictor in results.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// Reset restores initial state.
	Reset()
	// Save serializes the predictor's state for a deterministic
	// simulation checkpoint. It must only be called between branches
	// (i.e. not between a Predict and its Update).
	Save() ([]byte, error)
	// Restore replaces the predictor's state with a prior Save. The
	// predictor must be configured identically to the one that saved.
	Restore(data []byte) error
}

// New constructs a predictor by name: "bimodal", "gshare", or "tage".
func New(name string) (Predictor, error) {
	switch name {
	case "bimodal":
		return NewBimodal(12), nil
	case "gshare":
		return NewGshare(12), nil
	case "tage":
		t, err := NewTage(DefaultTageConfig())
		if err != nil {
			return nil, err
		}
		return t, nil
	case "static", "always-taken":
		return StaticTaken{}, nil
	default:
		return nil, fmt.Errorf("bpred: unknown predictor %q", name)
	}
}

// StaticTaken predicts every branch taken — the floor any dynamic predictor
// must beat.
type StaticTaken struct{}

// Name implements Predictor.
func (StaticTaken) Name() string { return "static" }

// Predict implements Predictor.
func (StaticTaken) Predict(uint64) bool { return true }

// Update implements Predictor.
func (StaticTaken) Update(uint64, bool) {}

// Reset implements Predictor.
func (StaticTaken) Reset() {}

// counter is a 2-bit saturating counter; values 0-1 predict not-taken,
// 2-3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	bits  uint
	table []counter
}

// NewBimodal returns a bimodal predictor with 2^bits entries.
func NewBimodal(bits uint) *Bimodal {
	b := &Bimodal{bits: bits}
	b.Reset()
	return b
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) index(pc uint64) uint64 {
	return (pc >> 2) & (uint64(len(b.table)) - 1)
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	b.table = make([]counter, 1<<b.bits)
	for i := range b.table {
		b.table[i] = 1 // weakly not-taken
	}
}

// Gshare XORs a global history register with the PC to index a table of
// 2-bit counters (McFarling).
type Gshare struct {
	bits    uint
	table   []counter
	history uint64
}

// NewGshare returns a gshare predictor with 2^bits entries and a history
// register of the same width.
func NewGshare(bits uint) *Gshare {
	g := &Gshare{bits: bits}
	g.Reset()
	return g
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & (uint64(len(g.table)) - 1)
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. The history register shifts in the outcome.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= 1<<g.bits - 1
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	g.table = make([]counter, 1<<g.bits)
	for i := range g.table {
		g.table[i] = 1
	}
	g.history = 0
}
