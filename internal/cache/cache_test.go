package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pipm/internal/config"
)

func small() *Cache {
	// 4 sets × 2 ways.
	return New(config.CacheConfig{SizeBytes: 4 * 2 * config.LineBytes, Ways: 2})
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", MigratedExclusive: "ME", State(9): "State(9)"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestStatepredicates(t *testing.T) {
	if !Modified.Dirty() || !MigratedExclusive.Dirty() {
		t.Error("M/ME should be dirty")
	}
	if Shared.Dirty() || Exclusive.Dirty() || Invalid.Dirty() {
		t.Error("S/E/I should be clean")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Error("Valid() wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if _, ok := c.Lookup(100); ok {
		t.Fatal("hit in empty cache")
	}
	c.Fill(100, Shared)
	st, ok := c.Lookup(100)
	if !ok || st != Shared {
		t.Fatalf("after fill: Lookup = %v,%v", st, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to set 0 (4 sets → stride 4 in line space).
	c.Fill(0, Exclusive)
	c.Fill(4, Shared)
	c.Lookup(0) // make line 0 MRU
	ev, evicted := c.Fill(8, Modified)
	if !evicted {
		t.Fatal("third fill into 2-way set did not evict")
	}
	if ev.Line != 4 || ev.State != Shared {
		t.Fatalf("evicted %+v, want line 4 in S", ev)
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("MRU line 0 was evicted")
	}
}

func TestFillExistingUpdatesState(t *testing.T) {
	c := small()
	c.Fill(12, Shared)
	if _, evicted := c.Fill(12, Modified); evicted {
		t.Fatal("refill of resident line evicted something")
	}
	if st, _ := c.Peek(12); st != Modified {
		t.Fatalf("state after refill = %v, want M", st)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill(Invalid) did not panic")
		}
	}()
	small().Fill(5, Invalid)
}

func TestWritebackCounting(t *testing.T) {
	c := small()
	c.Fill(0, Modified)
	c.Fill(4, Shared)
	c.Fill(8, Shared)  // evicts line 0 (M) → writeback
	c.Fill(12, Shared) // evicts line 4 (S) → clean
	s := c.Stats()
	if s.Evictions != 2 || s.Writebacks != 1 {
		t.Fatalf("evictions/writebacks = %d/%d, want 2/1", s.Evictions, s.Writebacks)
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := small()
	c.Fill(7, Exclusive)
	if !c.SetState(7, Modified) {
		t.Fatal("SetState on resident line failed")
	}
	if st, _ := c.Peek(7); st != Modified {
		t.Fatalf("state = %v", st)
	}
	if c.SetState(999, Shared) {
		t.Fatal("SetState on absent line succeeded")
	}
	st, ok := c.Invalidate(7)
	if !ok || st != Modified {
		t.Fatalf("Invalidate = %v,%v", st, ok)
	}
	if _, ok := c.Peek(7); ok {
		t.Fatal("line survived Invalidate")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("double Invalidate reported a line")
	}
	// SetState(Invalid) also drops the line.
	c.Fill(9, Shared)
	c.SetState(9, Invalid)
	if _, ok := c.Peek(9); ok {
		t.Fatal("SetState(Invalid) did not drop the line")
	}
}

func TestInvalidatePage(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 256 * 8 * config.LineBytes, Ways: 8}
	c := New(cfg)
	page := config.Addr(3)
	base := page << config.PageLineShift
	for l := config.Addr(0); l < config.LinesPerPage; l += 2 {
		c.Fill(base+l, Modified)
	}
	c.Fill(base+config.LinesPerPage, Shared) // first line of next page
	var dropped []config.Addr
	c.InvalidatePage(page, func(a config.Addr, st State) {
		if st != Modified {
			t.Errorf("dropped line %d in state %v", a, st)
		}
		dropped = append(dropped, a)
	})
	if len(dropped) != config.LinesPerPage/2 {
		t.Fatalf("dropped %d lines, want %d", len(dropped), config.LinesPerPage/2)
	}
	if _, ok := c.Peek(base + config.LinesPerPage); !ok {
		t.Fatal("neighbouring page's line was dropped")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	c := small()
	c.Fill(0, Shared)
	c.Fill(4, Shared)
	// Peek line 0 many times; it must NOT refresh LRU, so it gets evicted.
	for i := 0; i < 10; i++ {
		c.Peek(0)
	}
	c.Lookup(4) // real touch makes 4 MRU
	ev, evicted := c.Fill(8, Shared)
	if !evicted || ev.Line != 0 {
		t.Fatalf("evicted %+v, want line 0 (Peek must not refresh LRU)", ev)
	}
	s := c.Stats()
	if s.Hits != 1 {
		t.Fatalf("Peek affected hit stats: %+v", s)
	}
}

// Property: occupancy never exceeds capacity, and a just-filled line is
// always present.
func TestCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		cap := 4 * 2
		for _, a := range addrs {
			la := config.Addr(a)
			c.Fill(la, Shared)
			if _, ok := c.Peek(la); !ok {
				return false
			}
			if c.Occupancy() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fill's eviction accounting is exact — every line filled is
// either still resident or was returned as an eviction/invalidation.
func TestEvictionConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(config.CacheConfig{SizeBytes: 16 * 4 * config.LineBytes, Ways: 4})
	live := make(map[config.Addr]bool)
	for i := 0; i < 5000; i++ {
		la := config.Addr(rng.Intn(256))
		ev, evicted := c.Fill(la, Shared)
		live[la] = true
		if evicted {
			if !live[ev.Line] {
				t.Fatalf("evicted line %d that was never live", ev.Line)
			}
			delete(live, ev.Line)
		}
	}
	if len(live) != c.Occupancy() {
		t.Fatalf("ledger has %d lines, cache has %d", len(live), c.Occupancy())
	}
	for la := range live {
		if _, ok := c.Peek(la); !ok {
			t.Fatalf("ledger line %d missing from cache", la)
		}
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New(config.CacheConfig{SizeBytes: 3 * config.LineBytes, Ways: 1})
}

func TestNewRejectsWideSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 17 ways")
		}
	}()
	New(config.CacheConfig{SizeBytes: 4 * 17 * config.LineBytes, Ways: 17})
}
