package bpred

// refTage is the straightforward TAGE the optimised Tage replaced, kept
// as the differential oracle: per-table pointers, `%` in every fold and
// ring step, and the eager sweep over every entry when usefulness ages.
// Tage must match it on every prediction and on Save() bytes.

type refEntry struct {
	ctr    int8
	tag    uint32
	useful uint8
}

type refFolded struct {
	value   uint64
	origLen uint
	width   uint
}

func (f *refFolded) update(newBit, oldBit uint64) {
	f.value = (f.value << 1) | newBit
	f.value ^= oldBit << (f.origLen % f.width)
	f.value ^= f.value >> f.width
	f.value &= 1<<f.width - 1
}

type refTable struct {
	entries []refEntry
	histLen uint
	idxBits uint
	tagBits uint
	fIdx    refFolded
	fTag1   refFolded
	fTag2   refFolded
}

type refTage struct {
	base   *Bimodal
	tables []*refTable

	hist    []uint8
	head    int
	histLen int

	allocFailures int
	sweeps        int // ageing sweeps performed (test introspection)

	lastPC       uint64
	lastValid    bool
	lastProvider int
	lastAltPred  bool
	lastPred     bool
	lastIndices  []uint64
	lastTags     []uint32
}

func newRefTage(cfg TageConfig) *refTage {
	t := &refTage{base: NewBimodal(cfg.BaseBits)}
	for _, hl := range cfg.HistLengths {
		t.tables = append(t.tables, &refTable{
			entries: make([]refEntry, 1<<cfg.TableBits),
			histLen: hl,
			idxBits: cfg.TableBits,
			tagBits: cfg.TagBits,
			fIdx:    refFolded{origLen: hl, width: cfg.TableBits},
			fTag1:   refFolded{origLen: hl, width: cfg.TagBits},
			fTag2:   refFolded{origLen: hl, width: cfg.TagBits - 1},
		})
	}
	t.histLen = int(cfg.HistLengths[len(cfg.HistLengths)-1]) + 1
	t.hist = make([]uint8, t.histLen)
	t.lastIndices = make([]uint64, len(t.tables))
	t.lastTags = make([]uint32, len(t.tables))
	return t
}

func (t *refTage) histBit(age uint) uint64 {
	i := (t.head - int(age) + t.histLen*2) % t.histLen
	return uint64(t.hist[i])
}

func (t *refTage) pushHistory(taken bool) {
	var b uint8
	if taken {
		b = 1
	}
	newBit := uint64(b)
	for _, tb := range t.tables {
		oldBit := t.histBit(tb.histLen)
		tb.fIdx.update(newBit, oldBit)
		tb.fTag1.update(newBit, oldBit)
		tb.fTag2.update(newBit, oldBit)
	}
	t.hist[t.head] = b
	t.head = (t.head + 1) % t.histLen
}

func (tb *refTable) indexAndTag(pc uint64) (uint64, uint32) {
	idx := ((pc >> 2) ^ (pc >> (2 + tb.idxBits)) ^ tb.fIdx.value) & (1<<tb.idxBits - 1)
	tag := uint32(((pc >> 2) ^ tb.fTag1.value ^ (tb.fTag2.value << 1)) & (1<<tb.tagBits - 1))
	return idx, tag
}

func (t *refTage) Predict(pc uint64) bool {
	t.lastPC = pc
	t.lastValid = true
	t.lastProvider = -1
	basePred := t.base.Predict(pc)
	t.lastAltPred = basePred
	pred := basePred

	altFound := false
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		idx, tag := t.tables[ti].indexAndTag(pc)
		t.lastIndices[ti], t.lastTags[ti] = idx, tag
		e := &t.tables[ti].entries[idx]
		if e.tag == tag {
			if t.lastProvider == -1 {
				t.lastProvider = ti
				pred = e.ctr >= 0
			} else if !altFound {
				t.lastAltPred = e.ctr >= 0
				altFound = true
			}
		}
	}
	t.lastPred = pred
	return pred
}

func (t *refTage) Update(pc uint64, taken bool) {
	if !t.lastValid || t.lastPC != pc {
		t.Predict(pc)
	}
	t.lastValid = false

	correct := t.lastPred == taken
	if t.lastProvider >= 0 {
		tb := t.tables[t.lastProvider]
		e := &tb.entries[t.lastIndices[t.lastProvider]]
		if (e.ctr >= 0) == taken && t.lastAltPred != taken {
			if e.useful < 3 {
				e.useful++
			}
		}
		if (e.ctr >= 0) != taken && t.lastAltPred == taken && e.useful > 0 {
			e.useful--
		}
		e.ctr = satUpdate3(e.ctr, taken)
	} else {
		t.base.Update(pc, taken)
	}

	if !correct && t.lastProvider < len(t.tables)-1 {
		allocated := false
		for ti := t.lastProvider + 1; ti < len(t.tables); ti++ {
			e := &t.tables[ti].entries[t.lastIndices[ti]]
			if e.useful == 0 {
				e.tag = t.lastTags[ti]
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
			if t.allocFailures >= 32 {
				t.allocFailures = 0
				t.sweeps++
				for _, tb := range t.tables {
					for i := range tb.entries {
						if tb.entries[i].useful > 0 {
							tb.entries[i].useful--
						}
					}
				}
			}
		}
	}

	t.pushHistory(taken)
}

func (t *refTage) Save() ([]byte, error) {
	st := tageState{
		Hist:          append([]uint8(nil), t.hist...),
		Head:          t.head,
		AllocFailures: t.allocFailures,
	}
	baseBytes, err := t.base.Save()
	if err != nil {
		return nil, err
	}
	st.Base = baseBytes
	for _, tb := range t.tables {
		ts := tageTableState{
			Entries: make([]tageEntryState, len(tb.entries)),
			FIdx:    tb.fIdx.value,
			FTag1:   tb.fTag1.value,
			FTag2:   tb.fTag2.value,
		}
		for i, e := range tb.entries {
			ts.Entries[i] = tageEntryState{Ctr: e.ctr, Tag: e.tag, Useful: e.useful}
		}
		st.Tables = append(st.Tables, ts)
	}
	return gobEncode(&st)
}

// Restore trusts the shapes: the differential tests only hand it bytes
// saved by an identically configured predictor.
func (t *refTage) Restore(data []byte) error {
	var st tageState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := t.base.Restore(st.Base); err != nil {
		return err
	}
	for ti, ts := range st.Tables {
		tb := t.tables[ti]
		for i, e := range ts.Entries {
			tb.entries[i] = refEntry{ctr: e.Ctr, tag: e.Tag, useful: e.Useful}
		}
		tb.fIdx.value = ts.FIdx
		tb.fTag1.value = ts.FTag1
		tb.fTag2.value = ts.FTag2
	}
	copy(t.hist, st.Hist)
	t.head = st.Head
	t.allocFailures = st.AllocFailures
	t.lastValid = false
	return nil
}
