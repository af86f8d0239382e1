// Package cache implements the set-associative caches in each host's
// hierarchy (per-core L1D, per-host shared LLC) with LRU replacement,
// write-back/write-allocate semantics, and per-line coherence state. The
// coherence layer owns state meaning; the cache is just the indexed store.
// Eviction results are returned to the caller — that return value is the
// hook PIPM's incremental migration rides on. Recency, the one-word-per-set
// LRU order, also orders the device directory and remap caches.
package cache

import (
	"fmt"

	"pipm/internal/config"
)

// State is a cache line's coherence state. The values cover MESI within a
// host plus the PIPM-specific ME state (§4.3.2: Migrated-Modified/Exclusive,
// held in the local directory for blocks whose backing store is the host's
// own local DRAM rather than CXL memory).
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	// MigratedExclusive is PIPM's ME: cached exclusively on this host and
	// backed by local DRAM (in-memory bit set). Writes do not need a state
	// change; evictions write back to local DRAM only.
	MigratedExclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case MigratedExclusive:
		return "ME"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Dirty reports whether an eviction in this state must write data back.
func (s State) Dirty() bool { return s == Modified || s == MigratedExclusive }

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Line  config.Addr // line address of the victim
	State State       // state at eviction
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64 // evictions in a dirty state
}

// Cache is one set-associative cache level.
//
// A way's tag and state are packed into one key, line<<3 | state, with 0
// meaning invalid, and each set's LRU order is one Recency word
// (DESIGN.md §16.3). A probe scans only the keys, so a 16-way set costs
// two host cache lines.
type Cache struct {
	ways    int
	setMask config.Addr
	keys    []uint64 // sets*ways, flat; line<<stateBits | state, 0 = invalid
	rec     Recency
	stats   Stats
}

// stateBits is the width of the state field in a packed key.
const stateBits = 3

func key(lineAddr config.Addr, st State) uint64 { return uint64(lineAddr)<<stateBits | uint64(st) }

func keyLine(k uint64) config.Addr { return config.Addr(k >> stateBits) }

func keyState(k uint64) State { return State(k & (1<<stateBits - 1)) }

// New builds a cache from its configuration. The set count must be a power
// of two and the associativity at most config.MaxWays (config.Validate
// enforces both).
func New(cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets of %d ways: the set count is not a positive power of two", sets, cfg.Ways))
	}
	return &Cache{
		ways:    cfg.Ways,
		setMask: config.Addr(sets - 1),
		keys:    make([]uint64, sets*cfg.Ways),
		rec:     NewRecency(sets, cfg.Ways),
	}
}

// find returns lineAddr's set and the way in it holding the line, or -1.
func (c *Cache) find(lineAddr config.Addr) (set, way int) {
	set = int(lineAddr & c.setMask)
	base := set * c.ways
	want := uint64(lineAddr) << stateBits
	for i, k := range c.keys[base : base+c.ways] {
		if k^want < 1<<stateBits && k != 0 {
			return set, i
		}
	}
	return set, -1
}

// Lookup probes for lineAddr. On a hit it refreshes LRU and returns the
// current state; on a miss it returns (Invalid, false).
func (c *Cache) Lookup(lineAddr config.Addr) (State, bool) {
	if set, w := c.find(lineAddr); w >= 0 {
		c.rec.Touch(set, w)
		c.stats.Hits++
		return keyState(c.keys[set*c.ways+w]), true
	}
	c.stats.Misses++
	return Invalid, false
}

// Peek probes without touching LRU or statistics (directory queries).
func (c *Cache) Peek(lineAddr config.Addr) (State, bool) {
	if set, w := c.find(lineAddr); w >= 0 {
		return keyState(c.keys[set*c.ways+w]), true
	}
	return Invalid, false
}

// Fill installs lineAddr in state st, returning the eviction it displaced
// (ok=false when an invalid way was available). Filling a line that is
// already present just updates its state. One pass over the set finds the
// line if present, else the first invalid way; a full set evicts its LRU
// way.
func (c *Cache) Fill(lineAddr config.Addr, st State) (ev Eviction, evicted bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	set := int(lineAddr & c.setMask)
	keys := c.keys[set*c.ways : (set+1)*c.ways]
	want := uint64(lineAddr) << stateBits
	victim := -1
	for i, k := range keys {
		switch {
		case k == 0:
			if victim < 0 {
				victim = i
			}
		case k^want < 1<<stateBits:
			// Already present: state upgrade/downgrade in place.
			keys[i] = want | uint64(st)
			c.rec.Touch(set, i)
			return Eviction{}, false
		}
	}
	if victim < 0 {
		victim = c.rec.LRU(set)
		ev = Eviction{Line: keyLine(keys[victim]), State: keyState(keys[victim])}
		evicted = true
		c.stats.Evictions++
		if ev.State.Dirty() {
			c.stats.Writebacks++
		}
	}
	keys[victim] = want | uint64(st)
	c.rec.Touch(set, victim)
	c.stats.Fills++
	return ev, evicted
}

// SetState changes the state of a resident line; it reports whether the
// line was present.
func (c *Cache) SetState(lineAddr config.Addr, st State) bool {
	set, w := c.find(lineAddr)
	if w < 0 {
		return false
	}
	if st == Invalid {
		c.keys[set*c.ways+w] = 0
	} else {
		c.keys[set*c.ways+w] = key(lineAddr, st)
	}
	return true
}

// Invalidate drops lineAddr, returning its state at invalidation so the
// caller can issue a writeback for dirty data.
func (c *Cache) Invalidate(lineAddr config.Addr) (State, bool) {
	set, w := c.find(lineAddr)
	if w < 0 {
		return Invalid, false
	}
	i := set*c.ways + w
	st := keyState(c.keys[i])
	c.keys[i] = 0
	return st, true
}

// InvalidatePage drops every resident line of the given page, invoking fn
// for each valid line dropped. Page-granularity migration and PIPM's
// revocation of a partially migrated page use this.
func (c *Cache) InvalidatePage(page config.Addr, fn func(config.Addr, State)) {
	base := page << config.PageLineShift
	for l := config.Addr(0); l < config.LinesPerPage; l++ {
		lineAddr := base + l
		if set, w := c.find(lineAddr); w >= 0 {
			i := set*c.ways + w
			if fn != nil {
				fn(lineAddr, keyState(c.keys[i]))
			}
			c.keys[i] = 0
		}
	}
}

// ForEach invokes fn for every valid line without touching LRU order or
// statistics. The runtime invariant auditor walks cache contents through
// this; it must stay observation-only so audited runs are bit-identical.
func (c *Cache) ForEach(fn func(lineAddr config.Addr, st State)) {
	for _, k := range c.keys {
		if k != 0 {
			fn(keyLine(k), keyState(k))
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// Stats returns accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }
