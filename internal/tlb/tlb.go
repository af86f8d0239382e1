package tlb

import (
	"fmt"

	"pipm/internal/cache"
	"pipm/internal/config"
)

// TLB is a per-core set-associative translation cache over 4 KB pages.
// The simulator's traces carry physical addresses, so the TLB's role is
// timing fidelity: misses add page-walk latency, and kernel page migration
// invalidates entries (the shootdowns the Model prices). Disabled by
// default in the scaled configuration; see config.Config.TLBEntries.
type TLB struct {
	ways int
	sets int
	tags []int64 // sets*ways; -1 empty
	rec  cache.Recency

	hits, misses uint64
}

// NewTLB builds a TLB with the given capacity in entries and associativity.
// Zero or negative entries return nil (disabled); callers must nil-check.
// It panics on more than config.MaxWays ways (config.Validate rejects those
// first).
func NewTLB(entries, ways int) *TLB {
	if ways > config.MaxWays {
		panic(fmt.Sprintf("tlb: %d ways is above %d", ways, config.MaxWays))
	}
	if entries <= 0 {
		return nil
	}
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		ways = entries
	}
	sets := entries / ways
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	if sets < 1 {
		sets = 1
	}
	t := &TLB{
		ways: ways,
		sets: sets,
		tags: make([]int64, sets*ways),
		rec:  cache.NewRecency(sets, ways),
	}
	for i := range t.tags {
		t.tags[i] = -1
	}
	return t
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// Lookup translates the page containing addr, filling on a miss, and
// reports whether the translation hit. A miss fills the set's first empty
// way, else its LRU way.
func (t *TLB) Lookup(addr config.Addr) bool {
	page := int64(addr.Page())
	set := int(page) & (t.sets - 1)
	tags := t.tags[set*t.ways : (set+1)*t.ways]
	victim := -1
	for i, tag := range tags {
		switch {
		case tag == page:
			t.rec.Touch(set, i)
			t.hits++
			return true
		case tag == -1 && victim < 0:
			victim = i
		}
	}
	t.misses++
	if victim < 0 {
		victim = t.rec.LRU(set)
	}
	tags[victim] = page
	t.rec.Touch(set, victim)
	return false
}

// Invalidate drops the translation for page (a shootdown).
func (t *TLB) Invalidate(page config.Addr) {
	set := int(page) & (t.sets - 1)
	base := set * t.ways
	for i := 0; i < t.ways; i++ {
		if t.tags[base+i] == int64(page) {
			t.tags[base+i] = -1
			return
		}
	}
}

// Hits and Misses return raw counters.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (t *TLB) HitRate() float64 {
	n := t.hits + t.misses
	if n == 0 {
		return 0
	}
	return float64(t.hits) / float64(n)
}
