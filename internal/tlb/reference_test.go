package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"pipm/internal/config"
)

// refTLB is the stamp-based TLB the recency words replaced: a per-TLB LRU
// clock stamped on every lookup, and a victim scan that takes the first
// empty way, else the way with the smallest stamp. It is kept as an
// executable specification; TestTLBMatchesReference drives both with the
// same operation streams.
type refTLB struct {
	ways, sets   int
	tags         []int64
	lru          []uint64
	tick         uint64
	hits, misses uint64
}

func newRefTLB(t *TLB) *refTLB {
	r := &refTLB{ways: t.ways, sets: t.sets, tags: make([]int64, len(t.tags)), lru: make([]uint64, len(t.tags))}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
}

func (t *refTLB) Lookup(addr config.Addr) bool {
	page := int64(addr.Page())
	base := (int(page) & (t.sets - 1)) * t.ways
	t.tick++
	for i := 0; i < t.ways; i++ {
		if t.tags[base+i] == page {
			t.lru[base+i] = t.tick
			t.hits++
			return true
		}
	}
	t.misses++
	victim := base
	for i := 0; i < t.ways; i++ {
		if t.tags[base+i] == -1 {
			victim = base + i
			break
		}
		if t.lru[base+i] < t.lru[victim] {
			victim = base + i
		}
	}
	t.tags[victim] = page
	t.lru[victim] = t.tick
	return false
}

func (t *refTLB) Invalidate(page config.Addr) {
	base := (int(page) & (t.sets - 1)) * t.ways
	for i := 0; i < t.ways; i++ {
		if t.tags[base+i] == int64(page) {
			t.tags[base+i] = -1
			t.lru[base+i] = 0
			return
		}
	}
}

// TestTLBMatchesReference drives the TLB and the stamp-based reference
// with seeded random streams of lookups (a hit, or a fill that takes an
// empty way or evicts) and shootdowns over three times the capacity, at
// every associativity from 1 to 16. Every hit/miss answer, the counters
// and the final slot contents must agree.
func TestTLBMatchesReference(t *testing.T) {
	for ways := 1; ways <= config.MaxWays; ways++ {
		entries := ways << (ways % 4)
		for seed := int64(1); seed <= 4; seed++ {
			got := NewTLB(entries, ways)
			want := newRefTLB(got)
			rng := rand.New(rand.NewSource(seed))
			space := int64(3 * entries)
			for op := 0; op < 20000; op++ {
				page := config.Addr(rng.Int63n(space))
				if rng.Intn(10) == 0 {
					got.Invalidate(page)
					want.Invalidate(page)
					continue
				}
				addr := page*config.PageBytes + config.Addr(rng.Intn(config.PageBytes))
				if g, w := got.Lookup(addr), want.Lookup(addr); g != w {
					t.Fatalf("%d ways seed %d op %d (page %d): hit %v, reference %v", ways, seed, op, page, g, w)
				}
			}
			if got.Hits() != want.hits || got.Misses() != want.misses {
				t.Fatalf("%d ways seed %d: hits/misses %d/%d, reference %d/%d",
					ways, seed, got.Hits(), got.Misses(), want.hits, want.misses)
			}
			if !slices.Equal(got.tags, want.tags) {
				t.Fatalf("%d ways seed %d: slots differ:\n got       %v\n reference %v", ways, seed, got.tags, want.tags)
			}
		}
	}
}

func TestNewTLBRejectsWideSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 17 ways")
		}
	}()
	NewTLB(64, config.MaxWays+1)
}
