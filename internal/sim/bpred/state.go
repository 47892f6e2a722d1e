package bpred

// Checkpoint serialization for the predictors. A resumed cycle-exact
// simulation only reproduces bit-identical cycle counts if the branch
// predictor resumes with exactly the tables and history it had at the
// snapshot, so Save captures everything Predict/Update read: counter
// tables, global history (including the folded-history registers TAGE
// maintains incrementally), and the usefulness-aging counter. The
// Predict→Update bookkeeping (lastPC et al.) is deliberately excluded:
// checkpoints fire between retired instructions, and every Predict is
// consumed by its Update within a single instruction's charge, so that
// state is always dead at a snapshot; Restore just invalidates it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Save implements Predictor. StaticTaken has no state.
func (StaticTaken) Save() ([]byte, error) { return nil, nil }

// Restore implements Predictor.
func (StaticTaken) Restore(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("bpred: static predictor restore with %d bytes of state", len(data))
	}
	return nil
}

type bimodalState struct {
	Table []uint8
}

// Save implements Predictor.
func (b *Bimodal) Save() ([]byte, error) {
	st := bimodalState{Table: make([]uint8, len(b.table))}
	for i, c := range b.table {
		st.Table[i] = uint8(c)
	}
	return gobEncode(&st)
}

// Restore implements Predictor.
func (b *Bimodal) Restore(data []byte) error {
	var st bimodalState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: bimodal restore: %w", err)
	}
	if len(st.Table) != len(b.table) {
		return fmt.Errorf("bpred: bimodal restore: %d entries, want %d", len(st.Table), len(b.table))
	}
	for i, v := range st.Table {
		b.table[i] = counter(v)
	}
	return nil
}

type gshareState struct {
	Table   []uint8
	History uint64
}

// Save implements Predictor.
func (g *Gshare) Save() ([]byte, error) {
	st := gshareState{Table: make([]uint8, len(g.table)), History: g.history}
	for i, c := range g.table {
		st.Table[i] = uint8(c)
	}
	return gobEncode(&st)
}

// Restore implements Predictor.
func (g *Gshare) Restore(data []byte) error {
	var st gshareState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: gshare restore: %w", err)
	}
	if len(st.Table) != len(g.table) {
		return fmt.Errorf("bpred: gshare restore: %d entries, want %d", len(st.Table), len(g.table))
	}
	for i, v := range st.Table {
		g.table[i] = counter(v)
	}
	g.history = st.History
	return nil
}

type tageEntryState struct {
	Ctr    int8
	Tag    uint32
	Useful uint8
}

type tageTableState struct {
	Entries []tageEntryState
	FIdx    uint64
	FTag1   uint64
	FTag2   uint64
}

type tageState struct {
	Base          []uint8
	Tables        []tageTableState
	Hist          []uint8
	Head          int
	AllocFailures int
}

// Save implements Predictor. Usefulness is written as of the current
// ageing epoch, so the bytes do not depend on which entries have caught up;
// stamps, the epoch count and the lookup bookkeeping are not written.
func (t *Tage) Save() ([]byte, error) {
	st := tageState{
		Hist:          append([]uint8(nil), t.hist...),
		Head:          t.head,
		AllocFailures: t.allocFailures,
		Tables:        make([]tageTableState, len(t.tables)),
	}
	baseBytes, err := t.base.Save()
	if err != nil {
		return nil, err
	}
	st.Base = baseBytes
	for ti := range t.tables {
		tb := &t.tables[ti]
		entries := t.entries[tb.first:][:1<<t.tableBits]
		ts := tageTableState{
			Entries: make([]tageEntryState, len(entries)),
			FIdx:    tb.fIdx.value,
			FTag1:   tb.fTag1.value,
			FTag2:   tb.fTag2.value,
		}
		for i := range entries {
			e := &entries[i]
			ts.Entries[i] = tageEntryState{Ctr: e.ctr, Tag: e.tag, Useful: e.usefulAt(t.epoch)}
		}
		st.Tables[ti] = ts
	}
	return gobEncode(&st)
}

// Restore implements Predictor.
func (t *Tage) Restore(data []byte) error {
	var st tageState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: tage restore: %w", err)
	}
	if len(st.Tables) != len(t.tables) {
		return fmt.Errorf("bpred: tage restore: %d tables, want %d", len(st.Tables), len(t.tables))
	}
	if len(st.Hist) != len(t.hist) {
		return fmt.Errorf("bpred: tage restore: history length %d, want %d", len(st.Hist), len(t.hist))
	}
	if st.Head < 0 || st.Head >= len(t.hist) {
		return fmt.Errorf("bpred: tage restore: history head %d outside ring of %d", st.Head, len(t.hist))
	}
	perTable := 1 << t.tableBits
	for ti, ts := range st.Tables {
		if len(ts.Entries) != perTable {
			return fmt.Errorf("bpred: tage restore: table %d has %d entries, want %d",
				ti, len(ts.Entries), perTable)
		}
	}
	if err := t.base.Restore(st.Base); err != nil {
		return err
	}
	for ti, ts := range st.Tables {
		tb := &t.tables[ti]
		for i, e := range ts.Entries {
			t.entries[ti*perTable+i] = tageEntry{ctr: e.Ctr, tag: e.Tag, useful: e.Useful}
		}
		tb.fIdx.value = ts.FIdx
		tb.fTag1.value = ts.FTag1
		tb.fTag2.value = ts.FTag2
	}
	copy(t.hist, st.Hist)
	t.head = st.Head
	t.allocFailures = st.AllocFailures
	t.epoch = 0
	t.lastValid = false
	return nil
}
