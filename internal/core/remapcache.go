package core

import (
	"fmt"
	"math/bits"

	"pipm/internal/cache"
	"pipm/internal/config"
)

// RemapCache models the on-die caches in front of the remapping tables: the
// 16 KB global remapping cache on the CXL device and the 1 MB local
// remapping cache on each host's root complex (§4.4). It caches page
// indices only — entry *contents* always come from the backing table, so the
// cache cannot go stale; what it buys is skipping the in-memory table access
// on a hit, which is exactly what the latency model charges for.
//
// A geometry that can never evict is stored as a presence bitmap over the
// page domain instead of tags plus recency words (DESIGN.md §16.3). A set only
// ever holds distinct pages of its own residue class, so when no class has
// more members than the set has ways, a miss always finds an empty way and
// the cache is exactly the set of pages looked up and not invalidated since.
type RemapCache struct {
	capacity int // configured entries: -1 infinite, 0 disabled

	// Presence path (infinite, or no set can overflow).
	present []uint64 // bit p set ⇔ page p cached

	// Set-associative path.
	ways int
	sets int
	tags []int64 // sets*ways; -1 = empty
	rec  cache.Recency

	hits, misses uint64
}

// NewRemapCache builds a cache holding the given number of entries with the
// given associativity, in front of a table of pages entries; looked-up
// pages must lie in [0, pages). entries < 0 models an infinite cache (the
// sensitivity study's ideal); entries == 0 disables the cache (every lookup
// misses).
func NewRemapCache(entries, ways int, pages int64) *RemapCache {
	c := newRemapCache(entries, ways)
	switch {
	case c.capacity == 0:
	case c.capacity < 0 || (pages+int64(c.sets)-1)/int64(c.sets) <= int64(c.ways):
		c.present = make([]uint64, (pages+63)/64)
	default:
		c.allocSets()
	}
	return c
}

func (c *RemapCache) allocSets() {
	c.tags = make([]int64, c.sets*c.ways)
	c.rec = cache.NewRecency(c.sets, c.ways)
	for i := range c.tags {
		c.tags[i] = -1
	}
}

// newRemapCache normalises the geometry without allocating storage: sets
// round down to a power of two for cheap indexing and ways clamp to the
// entry count. It panics on more than config.MaxWays ways (config.Validate
// rejects those first).
func newRemapCache(entries, ways int) *RemapCache {
	if ways > config.MaxWays {
		panic(fmt.Sprintf("core: %d remap cache ways is above %d", ways, config.MaxWays))
	}
	switch {
	case entries < 0:
		return &RemapCache{capacity: -1}
	case entries == 0:
		return &RemapCache{}
	}
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		ways = entries
	}
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &RemapCache{capacity: sets * ways, ways: ways, sets: sets}
}

// Entries returns the cache's configured capacity in entries (-1 when
// infinite), whichever representation stores it.
func (c *RemapCache) Entries() int { return c.capacity }

// Lookup probes for page, inserting it on a miss (remap caches are filled
// by the very table walk the miss triggers). It reports whether the probe
// hit, which the caller prices.
func (c *RemapCache) Lookup(page int64) bool {
	switch {
	case c.capacity == 0:
		c.misses++
		return false
	case c.present != nil:
		w, bit := page>>6, uint64(1)<<uint(page&63)
		if c.present[w]&bit != 0 {
			c.hits++
			return true
		}
		c.misses++
		c.present[w] |= bit
		return false
	}
	set := int(page) & (c.sets - 1)
	tags := c.tags[set*c.ways : (set+1)*c.ways]
	victim := -1
	for i, tag := range tags {
		switch {
		case tag == page:
			c.rec.Touch(set, i)
			c.hits++
			return true
		case tag == -1 && victim < 0:
			victim = i
		}
	}
	c.misses++
	// Fill: the first empty way, else the set's LRU way.
	if victim < 0 {
		victim = c.rec.LRU(set)
	}
	tags[victim] = page
	c.rec.Touch(set, victim)
	return false
}

// ForEachCached invokes fn for every cached page index without touching LRU
// order or hit/miss counters (observation-only, for the invariant auditor).
// Iteration order is unspecified but deterministic.
func (c *RemapCache) ForEachCached(fn func(page int64)) {
	for w, word := range c.present {
		for ; word != 0; word &= word - 1 {
			fn(int64(w)<<6 | int64(bits.TrailingZeros64(word)))
		}
	}
	for _, tag := range c.tags {
		if tag != -1 {
			fn(tag)
		}
	}
}

// Invalidate drops page from the cache (entry removed from the table).
func (c *RemapCache) Invalidate(page int64) {
	switch {
	case c.capacity == 0:
		return
	case c.present != nil:
		c.present[page>>6] &^= uint64(1) << uint(page&63)
		return
	}
	set := int(page) & (c.sets - 1)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == page {
			c.tags[base+i] = -1
			return
		}
	}
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *RemapCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Hits and Misses return raw counters.
func (c *RemapCache) Hits() uint64   { return c.hits }
func (c *RemapCache) Misses() uint64 { return c.misses }
