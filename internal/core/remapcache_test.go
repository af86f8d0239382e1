package core

import (
	"math/rand"
	"slices"
	"testing"
)

// Direct tests for RemapCache eviction and aliasing, beyond the smoke
// coverage in tables_test.go: set-index aliasing, exact LRU order within a
// set, and the geometry normalization rules of NewRemapCache.

// testPages is a page domain large enough that every finite geometry below
// can evict, so NewRemapCache keeps the set-associative representation.
const testPages = 1 << 20

// Pages that differ by a multiple of the set count index the same set and
// contend for its ways; pages in other sets must be unaffected.
func TestRemapCacheAliasEviction(t *testing.T) {
	c := NewRemapCache(8, 2, testPages) // 4 sets × 2 ways
	sets := int64(4)
	p0, p1, p2 := int64(1), 1+sets, 1+2*sets // three aliases of set 1
	other := int64(2)                        // different set

	c.Lookup(p0)
	c.Lookup(p1)
	c.Lookup(other)
	if !c.Lookup(p0) || !c.Lookup(p1) {
		t.Fatal("two aliases do not fit a 2-way set")
	}
	c.Lookup(p2) // evicts LRU alias p0
	if c.Lookup(p0) {
		t.Fatal("LRU alias survived a third alias's fill")
	}
	// p0's refill evicted the then-LRU p1; p2 (MRU before the refill) stays.
	if !c.Lookup(p2) {
		t.Fatal("MRU alias evicted instead of LRU")
	}
	if !c.Lookup(other) {
		t.Fatal("alias churn in set 1 evicted an entry of set 2")
	}
}

func TestRemapCacheLRUWithinSet(t *testing.T) {
	c := NewRemapCache(4, 4, testPages) // one set, 4 ways
	for p := int64(0); p < 4; p++ {
		c.Lookup(p)
	}
	c.Lookup(0) // refresh 0: LRU is now 1
	c.Lookup(4) // evicts 1
	if c.Lookup(1) {
		t.Fatal("LRU entry survived")
	}
	// 1's refill evicted 2 (the LRU after 1 was gone).
	for _, p := range []int64{0, 3, 4, 1} {
		if !c.Lookup(p) {
			t.Fatalf("page %d evicted out of LRU order", p)
		}
	}
}

func TestRemapCacheInvalidateFreesWay(t *testing.T) {
	c := NewRemapCache(2, 2, testPages) // one set, 2 ways
	c.Lookup(0)
	c.Lookup(1)
	c.Invalidate(0)
	c.Lookup(2) // must take 0's freed slot, not evict 1
	if !c.Lookup(1) {
		t.Fatal("fill after Invalidate evicted a live entry instead of reusing the freed way")
	}
	if !c.Lookup(2) {
		t.Fatal("fill after Invalidate lost the new entry")
	}
	c.Invalidate(12345) // absent page: no-op
}

// Geometry normalization: sets round down to a power of two, ways clamp to
// the entry count, and every shape still hits immediately after a fill.
func TestRemapCacheGeometry(t *testing.T) {
	cases := []struct {
		entries, ways int
		wantEntries   int
	}{
		{12, 2, 8},   // 6 sets → 4 sets × 2 ways
		{8, 3, 6},    // 2 sets × 3 ways
		{1, 4, 1},    // ways clamp to the entry count
		{5, 1, 4},    // 5 sets → 4
		{16, 16, 16}, // fully associative
	}
	for _, tc := range cases {
		c := NewRemapCache(tc.entries, tc.ways, testPages)
		if got := c.Entries(); got != tc.wantEntries {
			t.Errorf("NewRemapCache(%d,%d).Entries() = %d, want %d",
				tc.entries, tc.ways, got, tc.wantEntries)
		}
		for p := int64(0); p < 64; p++ {
			c.Lookup(p)
			if !c.Lookup(p) {
				t.Errorf("geometry (%d,%d): page %d missed immediately after fill",
					tc.entries, tc.ways, p)
			}
		}
	}
}

func TestRemapCacheZeroWaysDefaultsToDirect(t *testing.T) {
	c := NewRemapCache(4, 0, testPages)
	if c.Entries() != 4 {
		t.Fatalf("entries = %d, want 4 (1-way × 4 sets)", c.Entries())
	}
	c.Lookup(1)
	if !c.Lookup(1) {
		t.Fatal("direct-mapped fill missed")
	}
	c.Lookup(5) // alias of 1 with 4 sets → evicts
	if c.Lookup(1) {
		t.Fatal("direct-mapped alias did not evict")
	}
}

// NewRemapCache takes the presence path exactly when no set can overflow:
// infinite, or ceil(pages/sets) ≤ ways after geometry normalisation.
func TestRemapCachePresenceRule(t *testing.T) {
	cases := []struct {
		entries, ways int
		pages         int64
		presence      bool
	}{
		{-1, 8, 1000, true},
		{0, 8, 1000, false},
		{1 << 18, 8, 16384, true}, // default 1 MB local cache, 64 MiB heap
		{8192, 8, 1024, true},     // 16 KB global cache, 4 MiB heap
		{8192, 8, 16384, false},   // 16 KB global cache, 64 MiB heap
		{256, 8, 256, true},       // 32 sets, 8 members per class
		{256, 8, 257, false},      // one class has 9 members
		{100, 7, 100, false},      // 14 sets → 8 sets × 7 ways; ceil(100/8)=13 > 7
		{112, 7, 100, true},       // 16 sets × 7 ways; ceil(100/16)=7
		{12, 2, 8, true},          // 6 sets → 4 sets × 2 ways; 2 per class
		{12, 2, 9, false},
	}
	for _, tc := range cases {
		c := NewRemapCache(tc.entries, tc.ways, tc.pages)
		if got := c.present != nil; got != tc.presence {
			t.Errorf("NewRemapCache(%d,%d,%d): presence path = %v, want %v",
				tc.entries, tc.ways, tc.pages, got, tc.presence)
		}
		if c.present != nil && c.tags != nil {
			t.Errorf("NewRemapCache(%d,%d,%d) allocated both representations",
				tc.entries, tc.ways, tc.pages)
		}
	}
}

// On a geometry that cannot evict, the presence bitmap and the forced
// set-associative representation must agree on every lookup's hit/miss,
// the counters, and the cached set, under seeded lookup/invalidate streams.
func TestRemapCachePresenceMatchesSetAssoc(t *testing.T) {
	geoms := []struct {
		entries, ways int
		pages         int64
	}{
		{8192, 8, 1024},
		{8192, 8, 8192},
		{256, 8, 256},
		{112, 7, 100},
		{12, 2, 8},
		{16, 16, 16},
		{4, 1, 4},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			fast := NewRemapCache(g.entries, g.ways, g.pages)
			if fast.present == nil {
				t.Fatalf("geometry %+v did not take the presence path", g)
			}
			ref := newSetAssocRemapCache(g.entries, g.ways)
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				page := rng.Int63n(g.pages)
				if rng.Intn(8) == 0 {
					fast.Invalidate(page)
					ref.Invalidate(page)
					continue
				}
				if a, b := fast.Lookup(page), ref.Lookup(page); a != b {
					t.Fatalf("geometry %+v seed %d op %d: Lookup(%d) presence=%v set-assoc=%v",
						g, seed, op, page, a, b)
				}
			}
			if fast.Hits() != ref.Hits() || fast.Misses() != ref.Misses() {
				t.Fatalf("geometry %+v seed %d: hits/misses %d/%d vs %d/%d", g, seed,
					fast.Hits(), fast.Misses(), ref.Hits(), ref.Misses())
			}
			if fast.Entries() != ref.Entries() {
				t.Fatalf("geometry %+v: Entries %d vs %d", g, fast.Entries(), ref.Entries())
			}
			if a, b := cachedPages(fast), cachedPages(ref); !slices.Equal(a, b) {
				t.Fatalf("geometry %+v seed %d: cached sets differ (%d vs %d pages)",
					g, seed, len(a), len(b))
			}
		}
	}
}

// newSetAssocRemapCache builds the set-associative representation of a
// finite cache whatever the page domain, so tests can compare it against
// the presence path.
func newSetAssocRemapCache(entries, ways int) *RemapCache {
	c := newRemapCache(entries, ways)
	c.allocSets()
	return c
}

func cachedPages(c *RemapCache) []int64 {
	var out []int64
	c.ForEachCached(func(p int64) { out = append(out, p) })
	slices.Sort(out)
	return out
}

// refRemapCache is the stamp-based set-associative remap cache the recency
// words replaced: a per-cache LRU clock stamped on every lookup, and a
// victim scan that takes the first empty way, else the way with the
// smallest stamp. It is kept as an executable specification;
// TestRemapCacheMatchesReference drives both with the same streams.
type refRemapCache struct {
	ways, sets   int
	tags         []int64
	lru          []uint64
	tick         uint64
	hits, misses uint64
}

func newRefRemapCache(c *RemapCache) *refRemapCache {
	r := &refRemapCache{ways: c.ways, sets: c.sets, tags: make([]int64, len(c.tags)), lru: make([]uint64, len(c.tags))}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
}

func (c *refRemapCache) Lookup(page int64) bool {
	base := (int(page) & (c.sets - 1)) * c.ways
	c.tick++
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == page {
			c.lru[base+i] = c.tick
			c.hits++
			return true
		}
	}
	c.misses++
	victim := base
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == -1 {
			victim = base + i
			break
		}
		if c.lru[base+i] < c.lru[victim] {
			victim = base + i
		}
	}
	c.tags[victim] = page
	c.lru[victim] = c.tick
	return false
}

func (c *refRemapCache) Invalidate(page int64) {
	base := (int(page) & (c.sets - 1)) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == page {
			c.tags[base+i] = -1
			c.lru[base+i] = 0
			return
		}
	}
}

// TestRemapCacheMatchesReference drives the set-associative path and the
// stamp-based reference with seeded random streams of lookups (a hit, or
// a fill that takes an empty way or evicts) and invalidations over three
// times the capacity, at every associativity from 1 to 16. Every hit/miss
// answer, the counters and the cached pages in ForEachCached order must
// agree.
func TestRemapCacheMatchesReference(t *testing.T) {
	for ways := 1; ways <= 16; ways++ {
		entries := ways << (ways % 4)
		for seed := int64(1); seed <= 4; seed++ {
			got := NewRemapCache(entries, ways, testPages)
			if got.tags == nil {
				t.Fatalf("%d entries × %d ways did not take the set-associative path", entries, ways)
			}
			want := newRefRemapCache(got)
			rng := rand.New(rand.NewSource(seed))
			space := int64(3 * entries)
			for op := 0; op < 20000; op++ {
				page := rng.Int63n(space)
				if rng.Intn(10) == 0 {
					got.Invalidate(page)
					want.Invalidate(page)
					continue
				}
				if g, w := got.Lookup(page), want.Lookup(page); g != w {
					t.Fatalf("%d ways seed %d op %d: Lookup(%d) %v, reference %v", ways, seed, op, page, g, w)
				}
			}
			if got.Hits() != want.hits || got.Misses() != want.misses {
				t.Fatalf("%d ways seed %d: hits/misses %d/%d, reference %d/%d",
					ways, seed, got.Hits(), got.Misses(), want.hits, want.misses)
			}
			var gc, wc []int64
			got.ForEachCached(func(p int64) { gc = append(gc, p) })
			for _, p := range want.tags {
				if p != -1 {
					wc = append(wc, p)
				}
			}
			if !slices.Equal(gc, wc) {
				t.Fatalf("%d ways seed %d: cached pages differ:\n got       %v\n reference %v", ways, seed, gc, wc)
			}
		}
	}
}

func TestNewRemapCacheRejectsWideSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 17 ways")
		}
	}()
	NewRemapCache(64, 17, testPages)
}
