package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"pipm/internal/config"
)

// refCache is the array-of-structs cache the packed-key layout replaced:
// one {tag, state, lru} record per way, searched in separate passes, with
// a per-cache LRU clock stamped on every touch and a min-scan for the
// victim. It is kept as an executable specification;
// TestPackedMatchesReference drives both with the same operation streams.
type refCache struct {
	ways    int
	setMask config.Addr
	lines   []refLine
	tick    uint64
	stats   Stats
}

type refLine struct {
	tag   config.Addr
	state State
	lru   uint64
}

func newRef(cfg config.CacheConfig) *refCache {
	sets := cfg.Sets()
	return &refCache{ways: cfg.Ways, setMask: config.Addr(sets - 1), lines: make([]refLine, sets*cfg.Ways)}
}

func (c *refCache) set(lineAddr config.Addr) []refLine {
	idx := int(lineAddr&c.setMask) * c.ways
	return c.lines[idx : idx+c.ways]
}

func (c *refCache) Lookup(lineAddr config.Addr) (State, bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			c.tick++
			set[i].lru = c.tick
			c.stats.Hits++
			return set[i].state, true
		}
	}
	c.stats.Misses++
	return Invalid, false
}

func (c *refCache) Peek(lineAddr config.Addr) (State, bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			return set[i].state, true
		}
	}
	return Invalid, false
}

func (c *refCache) Fill(lineAddr config.Addr, st State) (ev Eviction, evicted bool) {
	set := c.set(lineAddr)
	c.tick++
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			set[i].state = st
			set[i].lru = c.tick
			return Eviction{}, false
		}
	}
	victim, found := 0, false
	for i := range set {
		if set[i].state == Invalid {
			victim, found = i, true
			break
		}
	}
	if !found {
		oldest := set[0].lru
		for i := 1; i < c.ways; i++ {
			if set[i].lru < oldest {
				oldest, victim = set[i].lru, i
			}
		}
		ev = Eviction{Line: set[victim].tag, State: set[victim].state}
		evicted = true
		c.stats.Evictions++
		if ev.State.Dirty() {
			c.stats.Writebacks++
		}
	}
	set[victim] = refLine{tag: lineAddr, state: st, lru: c.tick}
	c.stats.Fills++
	return ev, evicted
}

func (c *refCache) SetState(lineAddr config.Addr, st State) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			if st == Invalid {
				set[i] = refLine{}
			} else {
				set[i].state = st
			}
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(lineAddr config.Addr) (State, bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			st := set[i].state
			set[i] = refLine{}
			return st, true
		}
	}
	return Invalid, false
}

func (c *refCache) InvalidatePage(page config.Addr, fn func(config.Addr, State)) {
	base := page << config.PageLineShift
	for l := config.Addr(0); l < config.LinesPerPage; l++ {
		lineAddr := base + l
		set := c.set(lineAddr)
		for i := range set {
			if set[i].state != Invalid && set[i].tag == lineAddr {
				fn(set[i].tag, set[i].state)
				set[i] = refLine{}
			}
		}
	}
}

func (c *refCache) ForEach(fn func(config.Addr, State)) {
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			fn(c.lines[i].tag, c.lines[i].state)
		}
	}
}

type dropped struct {
	line config.Addr
	st   State
}

// TestPackedMatchesReference drives the packed cache and the reference
// model with seeded random operation streams over a small line space, so
// sets overflow constantly: fills of present lines, invalidate-then-fill,
// LRU victims chosen while invalid ways remain elsewhere in the set, state
// changes to Invalid, and whole-page invalidations (line 0 included, whose
// packed key is just its state). Every return value, eviction, drop
// callback, the final contents and the Stats must agree.
func TestPackedMatchesReference(t *testing.T) {
	// Every associativity a recency word orders, powers of two or not, over
	// 1 to 16 sets.
	var geoms []config.CacheConfig
	for ways := 1; ways <= config.MaxWays; ways++ {
		sets := 1 << (ways % 5)
		geoms = append(geoms, config.CacheConfig{SizeBytes: sets * ways * config.LineBytes, Ways: ways})
	}
	states := []State{Shared, Exclusive, Modified, MigratedExclusive}
	for gi, g := range geoms {
		for seed := int64(1); seed <= 8; seed++ {
			got, want := New(g), newRef(g)
			rng := rand.New(rand.NewSource(seed))
			space := int64(g.SizeBytes/config.LineBytes) * 3
			for op := 0; op < 20000; op++ {
				line := config.Addr(rng.Int63n(space))
				st := states[rng.Intn(len(states))]
				var a, b any
				switch r := rng.Intn(100); {
				case r < 35:
					ga, gb := got.Lookup(line)
					wa, wb := want.Lookup(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 40:
					ga, gb := got.Peek(line)
					wa, wb := want.Peek(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 75:
					ga, gb := got.Fill(line, st)
					wa, wb := want.Fill(line, st)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 83:
					if rng.Intn(3) == 0 {
						st = Invalid
					}
					a, b = got.SetState(line, st), want.SetState(line, st)
				case r < 97:
					ga, gb := got.Invalidate(line)
					wa, wb := want.Invalidate(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				default:
					page := line >> config.PageLineShift
					var gd, wd []dropped
					got.InvalidatePage(page, func(l config.Addr, s State) { gd = append(gd, dropped{l, s}) })
					want.InvalidatePage(page, func(l config.Addr, s State) { wd = append(wd, dropped{l, s}) })
					a, b = gd, wd
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("geometry %d seed %d op %d (line %d): packed %v, reference %v",
						gi, seed, op, line, a, b)
				}
			}
			if got.Stats() != want.stats {
				t.Fatalf("geometry %d seed %d: stats %+v, reference %+v", gi, seed, got.Stats(), want.stats)
			}
			var gc, wc []dropped
			got.ForEach(func(l config.Addr, s State) { gc = append(gc, dropped{l, s}) })
			want.ForEach(func(l config.Addr, s State) { wc = append(wc, dropped{l, s}) })
			if !reflect.DeepEqual(gc, wc) {
				t.Fatalf("geometry %d seed %d: contents differ:\n packed    %v\n reference %v", gi, seed, gc, wc)
			}
		}
	}
}
