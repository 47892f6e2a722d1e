package bpred

// TAGE (TAgged GEometric history length) predictor after Seznec & Michaud,
// "A case for (partially) TAgged GEometric history length branch
// prediction". A bimodal base predictor is backed by several tagged tables
// indexed with geometrically increasing global-history lengths; the longest
// matching table provides the prediction, and entries are allocated on
// mispredictions. This is the predictor class BOOM adopted after Gshare,
// which the paper's SPEC2017 case study evaluates (§IV-B, Fig. 6).
//
// History folding uses the standard circular-shifted-register construction
// so every operation is O(1) in the history length, and a branch costs no
// integer division and no table sweep: fold positions and masks are fixed
// at construction, the history ring wraps by compare, and usefulness
// ageing is applied lazily per entry (DESIGN.md, "Cycle-exact hot loop").

import (
	"fmt"
	"math"
)

// TageConfig sizes the predictor.
type TageConfig struct {
	// BaseBits sizes the bimodal base table (2^BaseBits entries).
	BaseBits uint
	// TableBits sizes each tagged table (2^TableBits entries).
	TableBits uint
	// TagBits is the partial tag width.
	TagBits uint
	// HistLengths are the geometric history lengths, shortest first.
	HistLengths []uint
}

// DefaultTageConfig returns a 4-table configuration comparable in storage
// budget to the gshare predictor it is benchmarked against.
func DefaultTageConfig() TageConfig {
	return TageConfig{
		BaseBits:    12,
		TableBits:   10,
		TagBits:     10,
		HistLengths: []uint{5, 15, 44, 130},
	}
}

// tageEntry is one tagged-table entry. useful is only current as of ageing
// epoch stamp; read it through usefulAt.
type tageEntry struct {
	tag    uint32
	stamp  uint16
	ctr    int8  // 3-bit signed counter, -4..3; >=0 predicts taken
	useful uint8 // 2-bit usefulness
}

// usefulAt returns the entry's usefulness at the given ageing epoch: each
// epoch since the stamp is one saturating decrement.
func (e *tageEntry) usefulAt(epoch uint16) uint8 {
	d := epoch - e.stamp
	if d >= uint16(e.useful) {
		return 0
	}
	return e.useful - uint8(d)
}

// folded is an incrementally maintained folded-history register: the
// histLen most recent outcomes XOR-folded down to width bits, the outcome
// i branches ago at bit i mod width. Everything push needs is fixed at
// construction and sits beside the value.
type folded struct {
	value uint64
	mask  uint64 // 1<<width - 1
	out   uint64 // 1 << histLen%width: where the outcome leaving the window sits
	top   uint   // width - 1
}

func newFolded(histLen, width uint) folded {
	return folded{mask: 1<<width - 1, out: 1 << (histLen % width), top: width - 1}
}

// push advances the register by one branch: rotate left within width,
// then flip bit 0 for the incoming outcome and the bit under out for the
// outgoing one. in is 0 or 1; gone is all-ones when the outgoing outcome
// was taken, else 0.
func (f *folded) push(in, gone uint64) {
	v := f.value
	f.value = (v<<1|v>>(f.top&63))&f.mask ^ in ^ f.out&gone
}

type tageTable struct {
	fIdx    folded
	fTag1   folded
	fTag2   folded
	histLen int
	first   uint32 // index of the table's first entry in Tage.entries
	// slot (an index into Tage.entries) and tag of the latest lookup.
	slot uint32
	tag  uint32
}

// Tage is the predictor state.
type Tage struct {
	base      *Bimodal
	tableBits uint
	// entries holds every tagged table back to back, shortest history
	// first: table ti owns entries[ti<<TableBits : (ti+1)<<TableBits].
	tables  []tageTable
	entries []tageEntry

	// Global history as a circular bit buffer (most recent at head-1).
	hist []uint8
	head int

	allocFailures int
	// epoch counts usefulness-ageing rounds; entries catch up lazily.
	epoch uint16

	// What lookup returned for lastPC, kept from Predict to Update.
	lastPC    uint64
	lastValid bool
	provider  int
	pred      bool
	altPred   bool
}

// NewTage validates the configuration and constructs a TAGE predictor.
func NewTage(cfg TageConfig) (*Tage, error) {
	if cfg.BaseBits < 1 || cfg.BaseBits > 30 {
		return nil, fmt.Errorf("bpred: tage base bits %d outside 1..30", cfg.BaseBits)
	}
	if cfg.TableBits < 1 || cfg.TableBits > 24 {
		return nil, fmt.Errorf("bpred: tage table bits %d outside 1..24", cfg.TableBits)
	}
	if cfg.TagBits < 2 || cfg.TagBits > 32 {
		return nil, fmt.Errorf("bpred: tage tag bits %d outside 2..32", cfg.TagBits)
	}
	if len(cfg.HistLengths) == 0 || len(cfg.HistLengths) > 64 {
		return nil, fmt.Errorf("bpred: tage needs 1..64 history lengths, got %d", len(cfg.HistLengths))
	}
	prev := uint(0)
	for _, hl := range cfg.HistLengths {
		if hl <= prev || hl > 1<<20 {
			return nil, fmt.Errorf("bpred: tage history lengths %v not ascending within 1..%d", cfg.HistLengths, 1<<20)
		}
		prev = hl
	}
	t := &Tage{
		base:      NewBimodal(cfg.BaseBits),
		tableBits: cfg.TableBits,
		tables:    make([]tageTable, len(cfg.HistLengths)),
		entries:   make([]tageEntry, len(cfg.HistLengths)<<cfg.TableBits),
		hist:      make([]uint8, prev+1),
	}
	for i, hl := range cfg.HistLengths {
		t.tables[i] = tageTable{
			fIdx:    newFolded(hl, cfg.TableBits),
			fTag1:   newFolded(hl, cfg.TagBits),
			fTag2:   newFolded(hl, cfg.TagBits-1),
			histLen: int(hl),
			first:   uint32(i << cfg.TableBits),
		}
	}
	return t, nil
}

// Name implements Predictor.
func (t *Tage) Name() string { return "tage" }

// Reset implements Predictor.
func (t *Tage) Reset() {
	t.base.Reset()
	clear(t.entries)
	clear(t.hist)
	for i := range t.tables {
		tb := &t.tables[i]
		tb.fIdx.value, tb.fTag1.value, tb.fTag2.value = 0, 0, 0
	}
	t.head, t.allocFailures, t.epoch = 0, 0, 0
	t.lastValid = false
}

func (t *Tage) pushHistory(taken bool) {
	var b uint8
	if taken {
		b = 1
	}
	in := uint64(b)
	// Locals, so the loop's stores cannot force reloads through t.
	hist, head, tables := t.hist, t.head, t.tables
	for i := range tables {
		tb := &tables[i]
		// The outcome leaving this table's window, histLen branches ago.
		j := head - tb.histLen
		if j < 0 {
			j += len(hist)
		}
		gone := -uint64(hist[j])
		tb.fTag1.push(in, gone)
		tb.fTag2.push(in, gone)
		if tb.fIdx.mask == tb.fTag1.mask {
			// Same history folded to the same width: the same register.
			tb.fIdx.value = tb.fTag1.value
		} else {
			tb.fIdx.push(in, gone)
		}
	}
	hist[head] = b
	head++
	if head == len(hist) {
		head = 0
	}
	t.head = head
}

// lookup computes every table's slot and tag for pc and picks the
// provider (longest matching history, -1 for the base table), its
// prediction, and the alternate prediction (next longest match, else the
// base table).
func (t *Tage) lookup(pc uint64) (provider int, pred, alt bool) {
	word := pc >> 2
	idxHash := word ^ pc>>(2+t.tableBits)
	tables, entries := t.tables, t.entries
	provider = -1
	pred = t.base.Predict(pc)
	alt = pred
	for ti := range tables {
		tb := &tables[ti]
		slot := tb.first | uint32((idxHash^tb.fIdx.value)&tb.fIdx.mask)
		tag := uint32((word ^ tb.fTag1.value ^ tb.fTag2.value<<1) & tb.fTag1.mask)
		tb.slot, tb.tag = slot, tag
		if e := &entries[slot]; e.tag == tag {
			provider, alt, pred = ti, pred, e.ctr >= 0
		}
	}
	return provider, pred, alt
}

// train updates the tables with the resolved direction of the branch at
// pc, given what lookup just returned for it, then shifts the direction
// into the history.
func (t *Tage) train(pc uint64, taken bool, provider int, pred, alt bool) {
	if provider >= 0 {
		e := &t.entries[t.tables[provider].slot]
		// Usefulness moves only when provider and alternate disagreed.
		if pred != alt {
			e.useful, e.stamp = e.usefulAt(t.epoch), t.epoch
			if pred == taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
		e.ctr = satUpdate3(e.ctr, taken)
	} else {
		t.base.Update(pc, taken)
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if pred != taken && provider < len(t.tables)-1 {
		allocated := false
		for ti := provider + 1; ti < len(t.tables); ti++ {
			e := &t.entries[t.tables[ti].slot]
			if e.usefulAt(t.epoch) == 0 {
				e.tag = t.tables[ti].tag
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			t.allocFailures++
			// Periodically age usefulness so the predictor can adapt: one
			// saturating decrement of every entry, applied by usefulAt.
			if t.allocFailures >= 32 {
				t.allocFailures = 0
				if t.epoch == math.MaxUint16 {
					t.settle()
				}
				t.epoch++
			}
		}
	}

	t.pushHistory(taken)
}

// settle applies the pending ageing to every entry and restarts the epoch
// count, so stamps never wrap.
func (t *Tage) settle() {
	for i := range t.entries {
		e := &t.entries[i]
		e.useful, e.stamp = e.usefulAt(t.epoch), 0
	}
	t.epoch = 0
}

// Predict implements Predictor.
func (t *Tage) Predict(pc uint64) bool {
	t.provider, t.pred, t.altPred = t.lookup(pc)
	t.lastPC, t.lastValid = pc, true
	return t.pred
}

// Update implements Predictor. It must be called once per branch after
// Predict; calling it standalone recomputes the prediction context first.
func (t *Tage) Update(pc uint64, taken bool) {
	if !t.lastValid || t.lastPC != pc {
		t.provider, t.pred, t.altPred = t.lookup(pc)
	}
	t.lastValid = false
	t.train(pc, taken, t.provider, t.pred, t.altPred)
}

// PredictUpdate is Predict followed by Update for the same branch in one
// call: it returns the direction predicted before training on taken.
func (t *Tage) PredictUpdate(pc uint64, taken bool) bool {
	provider, pred, alt := t.lookup(pc)
	t.lastValid = false
	t.train(pc, taken, provider, pred, alt)
	return pred
}

func satUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}
