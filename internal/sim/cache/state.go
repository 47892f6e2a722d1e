package cache

// Checkpoint serialization. Resumed cycle-exact runs need the cache
// model's exact tag/valid/LRU state (and the LRU clock) to charge the
// same hits and misses an uninterrupted run would; Hits/Misses travel
// too so end-of-run statistics match.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

type state struct {
	Tags   [][]uint64
	Valid  [][]bool
	LRU    [][]uint64
	Clock  uint64
	Hits   uint64
	Misses uint64
}

// Save serializes the cache's complete replacement state for a
// deterministic simulation checkpoint. The flat line array is written in
// the per-set layout checkpoints have always used; the same-line memo is
// derived state and is not written, only its deferred LRU stamp is.
func (c *Cache) Save() ([]byte, error) {
	c.settle()
	st := state{
		Tags:   make([][]uint64, c.sets),
		Valid:  make([][]bool, c.sets),
		LRU:    make([][]uint64, c.sets),
		Clock:  c.Hits + c.Misses,
		Hits:   c.Hits,
		Misses: c.Misses,
	}
	for i := range st.Tags {
		st.Tags[i] = make([]uint64, c.ways)
		st.Valid[i] = make([]bool, c.ways)
		st.LRU[i] = make([]uint64, c.ways)
		for w, l := range c.lines[i*c.ways : (i+1)*c.ways] {
			st.Tags[i][w], st.Valid[i][w], st.LRU[i][w] = l.tag, l.valid, l.lru
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the cache's state with a prior Save. The cache must
// be configured identically to the one that saved.
func (c *Cache) Restore(data []byte) error {
	var st state
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("cache: restore: %w", err)
	}
	if len(st.Tags) != c.sets || len(st.Valid) != c.sets || len(st.LRU) != c.sets {
		return fmt.Errorf("cache: restore: %d sets, want %d", len(st.Tags), c.sets)
	}
	for i := range st.Tags {
		if len(st.Tags[i]) != c.ways || len(st.Valid[i]) != c.ways || len(st.LRU[i]) != c.ways {
			return fmt.Errorf("cache: restore: set %d has %d ways, want %d", i, len(st.Tags[i]), c.ways)
		}
	}
	if st.Clock != st.Hits+st.Misses {
		return fmt.Errorf("cache: restore: clock %d is not hits %d + misses %d", st.Clock, st.Hits, st.Misses)
	}
	for i := range st.Tags {
		for w := range st.Tags[i] {
			c.lines[i*c.ways+w] = line{tag: st.Tags[i][w], lru: st.LRU[i][w], valid: st.Valid[i][w]}
		}
	}
	c.memo, c.memoSpan = nil, 0
	c.Hits = st.Hits
	c.Misses = st.Misses
	return nil
}
