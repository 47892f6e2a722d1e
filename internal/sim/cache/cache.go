// Package cache implements the set-associative cache timing models used by
// the cycle-exact simulator for the L1 instruction and data caches. Only
// timing is modelled (hit/miss); data always comes from the functional
// memory, which keeps the functional/cycle-exact equivalence trivially true.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int `json:"size_bytes"`
	// LineBytes is the block size (power of two).
	LineBytes int `json:"line_bytes"`
	// Ways is the associativity.
	Ways int `json:"ways"`
}

// DefaultL1I returns a typical 16KiB 4-way L1 instruction cache.
func DefaultL1I() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4} }

// DefaultL1D returns a typical 16KiB 4-way L1 data cache.
func DefaultL1D() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4} }

// line is one way of one set; lru holds recency (higher = more recent).
type line struct {
	tag   uint64
	lru   uint64
	valid bool
}

// Cache is a set-associative cache with true-LRU replacement. The LRU
// clock is the access count, Hits + Misses.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	setBits  uint
	// lines holds every way of every set, set-major: set*ways + way.
	lines []line

	// Same-line memo: the most recent access touched the memoSpan bytes at
	// memoBase, which live in *memo. That line is resident by construction
	// and nothing has touched the cache since, so a repeat access is a hit
	// that needs no way search — and no LRU stamp either: only the last of
	// a run of hits on one line is ever read back, so settle writes it
	// when the run ends. Derived state: memoSpan is 0 when there is no
	// memo; Reset and Restore clear it and Save settles before writing.
	memoBase uint64
	memoSpan uint64
	memo     *line

	Hits   uint64
	Misses uint64
}

// New validates the configuration and builds the cache.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d bytes / %d-byte lines not divisible into %d ways",
			cfg.SizeBytes, cfg.LineBytes, cfg.Ways)
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]line, lines),
	}, nil
}

// Access looks up addr, updating LRU state and filling on miss.
// It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	if addr-c.memoBase >= c.memoSpan {
		return c.lookup(addr)
	}
	c.Hits++
	return true
}

// settle gives the memo line the stamp of the latest access, which was to
// it: the one stamp the memo's hits deferred.
func (c *Cache) settle() {
	if c.memo != nil {
		c.memo.lru = c.Hits + c.Misses
	}
}

// lookup is Access past the memo: search the set, fill the LRU way on a
// miss, and remember the slot.
func (c *Cache) lookup(addr uint64) bool {
	c.settle()
	now := c.Hits + c.Misses + 1
	ln := addr >> c.lineBits
	base := int(ln&uint64(c.sets-1)) * c.ways
	set := c.lines[base : base+c.ways]
	tag := ln >> c.setBits
	c.memoBase, c.memoSpan = ln<<c.lineBits, 1<<c.lineBits
	for w := range set {
		if l := &set[w]; l.valid && l.tag == tag {
			l.lru = now
			c.memo = l
			c.Hits++
			return true
		}
	}
	victim := &set[0]
	for w := 1; w < len(set); w++ {
		if set[w].lru < victim.lru {
			victim = &set[w]
		}
	}
	*victim = line{tag: tag, lru: now, valid: true}
	c.memo = victim
	c.Misses++
	return false
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i].valid, c.lines[i].lru = false, 0
	}
	c.memo, c.memoSpan = nil, 0
	c.Hits, c.Misses = 0, 0
}

// HitRate returns hits/(hits+misses), or 1 when no accesses occurred.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 1
	}
	return float64(c.Hits) / float64(total)
}

// Sets returns the number of sets (for tests and introspection).
func (c *Cache) Sets() int { return c.sets }
