package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGlobalTableInit(t *testing.T) {
	g := NewGlobalTable(100, 4)
	if g.Pages() != 100 {
		t.Fatalf("Pages = %d", g.Pages())
	}
	for p := int64(0); p < 100; p++ {
		e := g.Entry(p)
		if e.CurHost != NoHost || e.CandHost != NoHost || e.Counter != 0 {
			t.Fatalf("page %d not initialized: %+v", p, e)
		}
	}
	if g.SizeBytes() != 200 {
		t.Fatalf("SizeBytes = %d, want 200 (2B/entry)", g.SizeBytes())
	}
	// Beyond 32 hosts the hardware entry widens to 3 bytes.
	wide := NewGlobalTable(100, 256)
	if wide.SizeBytes() != 300 {
		t.Fatalf("wide SizeBytes = %d, want 300 (3B/entry)", wide.SizeBytes())
	}
}

func TestGlobalEntryMutable(t *testing.T) {
	g := NewGlobalTable(10, 4)
	g.Entry(3).CandHost = 2
	if g.Entry(3).CandHost != 2 {
		t.Fatal("Entry does not return a mutable pointer")
	}
}

// Property: the sharded table behaves exactly like a flat array of entries
// for every slice count the host range produces, and the per-slice
// owned-page counters always agree with a full walk.
func TestGlobalTableShardingProperty(t *testing.T) {
	for _, hosts := range []int{1, 2, 4, 16, 64, 256} {
		for _, pages := range []int64{1, 3, 63, 64, 65, 1000} {
			g := NewGlobalTable(pages, hosts)
			if g.Slices()&(g.Slices()-1) != 0 {
				t.Fatalf("hosts=%d: %d slices not a power of two", hosts, g.Slices())
			}
			// Distinct pages must map to distinct storage.
			seen := map[*GlobalEntry]int64{}
			for p := int64(0); p < pages; p++ {
				e := g.Entry(p)
				if prev, dup := seen[e]; dup {
					t.Fatalf("hosts=%d pages=%d: pages %d and %d alias", hosts, pages, prev, p)
				}
				seen[e] = p
			}
			// Owned counters track SetOwner transitions.
			for p := int64(0); p < pages; p += 2 {
				g.SetOwner(p, int(p)%hosts)
			}
			walked := 0
			for p := int64(0); p < pages; p++ {
				if g.Entry(p).CurHost != NoHost {
					walked++
				}
			}
			if g.OwnedPages() != walked {
				t.Fatalf("hosts=%d pages=%d: OwnedPages %d != walk %d", hosts, pages, g.OwnedPages(), walked)
			}
			perSlice := 0
			for s := 0; s < g.Slices(); s++ {
				perSlice += g.SliceOwned(s)
			}
			if perSlice != walked {
				t.Fatalf("per-slice sum %d != walk %d", perSlice, walked)
			}
			for p := int64(0); p < pages; p += 2 {
				g.SetOwner(p, NoHost)
				g.SetOwner(p, NoHost) // idempotent clear
			}
			if g.OwnedPages() != 0 {
				t.Fatalf("OwnedPages %d after clearing all", g.OwnedPages())
			}
		}
	}
}

func TestLocalTableInsertLookupRemove(t *testing.T) {
	lt := &NewLocalTables(10000, 1)[0]
	if _, ok := lt.Lookup(5); ok {
		t.Fatal("hit in empty table")
	}
	e := lt.Insert(5, 8)
	if e.Counter != 8 {
		t.Fatalf("counter = %d", e.Counter)
	}
	e2 := lt.Insert(9999, 8)
	if e2.PFN == e.PFN {
		t.Fatal("PFNs not unique")
	}
	got, ok := lt.Lookup(5)
	if !ok || got.PFN != e.PFN {
		t.Fatalf("Lookup(5) = %+v, %v", got, ok)
	}
	if lt.Count() != 2 {
		t.Fatalf("Count = %d", lt.Count())
	}
	removed, ok := lt.Remove(5)
	if !ok || removed.PFN != e.PFN {
		t.Fatalf("Remove = %+v, %v", removed, ok)
	}
	if _, ok := lt.Lookup(5); ok {
		t.Fatal("entry survived Remove")
	}
	if _, ok := lt.Remove(5); ok {
		t.Fatal("double Remove succeeded")
	}
	if _, ok := lt.Remove(7777); ok {
		t.Fatal("Remove of never-inserted page succeeded")
	}
	if lt.Count() != 1 {
		t.Fatalf("Count = %d after remove", lt.Count())
	}
}

func TestLocalTableDuplicateInsertPanics(t *testing.T) {
	// The hosts share one store, so a page held anywhere cannot be inserted
	// again, at its holder or at any other host.
	lts := NewLocalTables(100, 3)
	lts[2].Insert(1, 8)
	for _, h := range []int{2, 0} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "already held by host 2") {
					t.Fatalf("Insert at host %d of a page host 2 holds: panic %q", h, msg)
				}
			}()
			lts[h].Insert(1, 8)
		}()
	}
	if _, ok := lts[0].Lookup(1); ok || lts[0].Count() != 0 {
		t.Fatal("host 0 sees host 2's entry")
	}
}

func TestLocalTableRadixSpansLeaves(t *testing.T) {
	lt := &NewLocalTables(5*leafEntries, 1)[0]
	// Insert one page per leaf plus boundary pages.
	pages := []int64{0, leafEntries - 1, leafEntries, 2*leafEntries + 7, 5*leafEntries - 1}
	for _, p := range pages {
		lt.Insert(p, 1)
	}
	for _, p := range pages {
		if _, ok := lt.Lookup(p); !ok {
			t.Fatalf("page %d missing", p)
		}
	}
	if lt.Count() != len(pages) {
		t.Fatalf("Count = %d", lt.Count())
	}
}

func TestLocalTableBitmapAndMigratedLines(t *testing.T) {
	lt := &NewLocalTables(100, 1)[0]
	lt.Insert(3, 8)
	lt.Insert(7, 8)
	for _, l := range []int{0, 1, 3, 3} {
		lt.MigrateLine(3, l)
	}
	if !lt.MigrateLine(7, 63) || lt.MigrateLine(7, 63) || lt.MigrateLine(9, 0) {
		t.Fatal("MigrateLine reported a wrong change")
	}
	if e, _ := lt.Lookup(3); e.Bitmap != 0b1011 {
		t.Fatalf("bitmap = %b, want 1011", e.Bitmap)
	}
	if got := lt.MigratedLines(); got != 4 {
		t.Fatalf("MigratedLines = %d, want 4", got)
	}
	if !lt.DemoteLine(3, 1) || lt.DemoteLine(3, 1) || lt.DemoteLine(9, 0) {
		t.Fatal("DemoteLine reported a wrong change")
	}
	if got := lt.MigratedLines(); got != 3 {
		t.Fatalf("MigratedLines = %d after demote, want 3", got)
	}
	lt.Remove(3) // takes lines 0 and 3 with it
	if got := lt.MigratedLines(); got != 1 {
		t.Fatalf("MigratedLines = %d after remove, want 1", got)
	}
}

func TestLocalTableSizeBytes(t *testing.T) {
	lt := &NewLocalTables(2048, 1)[0]
	base := lt.SizeBytes()
	if base != 2*8 { // 2 root entries × 8B
		t.Fatalf("empty SizeBytes = %d", base)
	}
	lt.Insert(0, 1)
	if lt.SizeBytes() != base+4 {
		t.Fatalf("SizeBytes after insert = %d, want %d", lt.SizeBytes(), base+4)
	}
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 0b1011: 3, ^uint64(0): 64}
	for x, want := range cases {
		if got := popcount(x); got != want {
			t.Errorf("popcount(%b) = %d, want %d", x, got, want)
		}
	}
}

// Property: insert/remove round-trips preserve count and membership.
func TestLocalTableLedgerProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		lt := &NewLocalTables(4096, 1)[0]
		live := map[int64]bool{}
		for _, op := range ops {
			p := int64(op) % 4096
			if live[p] {
				if _, ok := lt.Remove(p); !ok {
					return false
				}
				delete(live, p)
			} else {
				lt.Insert(p, 1)
				live[p] = true
			}
			if lt.Count() != len(live) {
				return false
			}
		}
		for p := range live {
			if _, ok := lt.Lookup(p); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapCacheBasics(t *testing.T) {
	c := NewRemapCache(8, 2, testPages)
	if c.Entries() != 8 {
		t.Fatalf("Entries = %d", c.Entries())
	}
	if c.Lookup(5) {
		t.Fatal("hit in empty cache")
	}
	if !c.Lookup(5) {
		t.Fatal("miss after fill")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
	c.Invalidate(5)
	if c.Lookup(5) {
		t.Fatal("hit after Invalidate")
	}
}

func TestRemapCacheEvicts(t *testing.T) {
	c := NewRemapCache(4, 2, testPages) // 2 sets × 2 ways
	// Pages 0,2,4 map to set 0; third fills evicts LRU (page 0).
	c.Lookup(0)
	c.Lookup(2)
	c.Lookup(2) // make 2 MRU
	c.Lookup(4) // evicts 0 (LRU)
	if !c.Lookup(2) {
		t.Fatal("page 2 should have survived")
	}
	if c.Lookup(0) {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestRemapCacheInfinite(t *testing.T) {
	c := NewRemapCache(-1, 8, testPages)
	if c.Entries() != -1 {
		t.Fatalf("Entries = %d, want -1", c.Entries())
	}
	for p := int64(0); p < 100000; p++ {
		c.Lookup(p)
	}
	for p := int64(0); p < 100000; p++ {
		if !c.Lookup(p) {
			t.Fatalf("infinite cache missed page %d", p)
		}
	}
	c.Invalidate(50)
	if c.Lookup(50) {
		t.Fatal("hit after Invalidate on infinite cache")
	}
}

func TestRemapCacheDisabled(t *testing.T) {
	c := NewRemapCache(0, 8, testPages)
	if c.Entries() != 0 {
		t.Fatalf("Entries = %d, want 0", c.Entries())
	}
	c.Lookup(1)
	if c.Lookup(1) {
		t.Fatal("disabled cache hit")
	}
	c.Invalidate(1) // must not panic
	if c.HitRate() != 0 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
}

func TestRemapCacheOddSizes(t *testing.T) {
	// Non-power-of-two entry counts round down to a power-of-two set count
	// but must still function.
	c := NewRemapCache(100, 8, testPages)
	if c.Entries() <= 0 || c.Entries() > 100 {
		t.Fatalf("Entries = %d", c.Entries())
	}
	for p := int64(0); p < 1000; p++ {
		c.Lookup(p)
	}
	// Capacity smaller than ways degrades to fewer ways.
	c2 := NewRemapCache(2, 8, testPages)
	if c2.Entries() != 2 {
		t.Fatalf("tiny cache Entries = %d", c2.Entries())
	}
}
