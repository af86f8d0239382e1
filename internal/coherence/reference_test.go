package coherence

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"pipm/internal/config"
)

// refDir is the array-of-structs directory the split tag/entry layout
// replaced: one {tag, valid, lru, entry} record per way. It is kept as an
// executable specification; TestSplitLayoutMatchesReference drives both
// with the same operation streams.
type refDir struct {
	sets, ways int
	sliceMask  config.Addr
	sliceShift uint
	slices     []refSlice
}

type refSlice struct {
	lines []refLine
	tick  uint64
	occ   int
	stats Stats
}

type refLine struct {
	tag   config.Addr
	valid bool
	lru   uint64
	entry Entry
}

func newRefDir(cfg config.CXLConfig) *refDir {
	d := &refDir{
		sets:       cfg.DirSets,
		ways:       cfg.DirWays,
		sliceMask:  config.Addr(cfg.DirSlices - 1),
		sliceShift: uint(log2(cfg.DirSlices)),
		slices:     make([]refSlice, cfg.DirSlices),
	}
	for i := range d.slices {
		d.slices[i].lines = make([]refLine, cfg.DirSets*cfg.DirWays)
	}
	return d
}

func (d *refDir) setFor(line config.Addr) (*refSlice, []refLine) {
	sl := &d.slices[line&d.sliceMask]
	idx := (int(line>>d.sliceShift) & (d.sets - 1)) * d.ways
	return sl, sl.lines[idx : idx+d.ways]
}

func (d *refDir) Lookup(line config.Addr) (Entry, bool) {
	sl, set := d.setFor(line)
	sl.stats.Lookups++
	for i := range set {
		if set[i].valid && set[i].tag == line {
			switch set[i].entry.State {
			case DirShared:
				sl.stats.HitS++
			case DirModified:
				sl.stats.HitM++
			}
			return set[i].entry, true
		}
	}
	sl.stats.MissI++
	return Entry{}, false
}

func (d *refDir) Peek(line config.Addr) (Entry, bool) {
	_, set := d.setFor(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

func (d *refDir) Update(line config.Addr, e Entry) (BackInvalidation, bool) {
	sl, set := d.setFor(line)
	sl.tick++
	for i := range set {
		if set[i].valid && set[i].tag == line {
			if e.State == DirInvalid {
				set[i] = refLine{}
				sl.occ--
				return BackInvalidation{}, false
			}
			set[i].entry = e
			set[i].lru = sl.tick
			return BackInvalidation{}, false
		}
	}
	if e.State == DirInvalid {
		return BackInvalidation{}, false
	}
	victim, found := 0, false
	for i := range set {
		if !set[i].valid {
			victim, found = i, true
			break
		}
	}
	var bi BackInvalidation
	evicted := false
	if !found {
		oldest := set[0].lru
		for i := 1; i < d.ways; i++ {
			if set[i].lru < oldest {
				oldest, victim = set[i].lru, i
			}
		}
		bi = BackInvalidation{Line: set[victim].tag, Entry: set[victim].entry}
		evicted = true
		sl.stats.BackInvals++
	}
	set[victim] = refLine{tag: line, valid: true, lru: sl.tick, entry: e}
	if !evicted {
		sl.occ++
	}
	sl.stats.Installs++
	return bi, evicted
}

func (d *refDir) Remove(line config.Addr) (Entry, bool) {
	sl, set := d.setFor(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			e := set[i].entry
			set[i] = refLine{}
			sl.occ--
			return e, true
		}
	}
	return Entry{}, false
}

func (d *refDir) RemoveSharer(line config.Addr, h int) bool {
	sl, set := d.setFor(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			e := &set[i].entry
			switch e.State {
			case DirShared:
				e.Sharers = e.Sharers.Without(h)
				if e.Sharers.Empty() {
					set[i] = refLine{}
					sl.occ--
					return false
				}
			case DirModified:
				if int(e.Owner) == h {
					set[i] = refLine{}
					sl.occ--
					return false
				}
			}
			return true
		}
	}
	return false
}

func (d *refDir) ForEach(fn func(config.Addr, Entry)) {
	for s := range d.slices {
		for _, l := range d.slices[s].lines {
			if l.valid {
				fn(l.tag, l.entry)
			}
		}
	}
}

type dirItem struct {
	line  config.Addr
	entry Entry
}

// TestSplitLayoutMatchesReference drives the split tag/entry directory and
// the reference model with seeded random operation streams: installs,
// in-place updates, Update(DirInvalid) of present and absent lines,
// RemoveSharer for owners, non-owners and sharers, and Remove. Every
// return value, back-invalidation, per-slice occupancy and Stats, and the
// final contents must agree. The first geometries draw from three times
// the capacity, so sets overflow constantly (line 0, whose tag is stored
// as 1, included) and sets of 2, 4, 12 and 16 ways evict their LRU way.
// The next ones give NewDeviceDir a line domain small enough that no set
// can overflow, so it takes the dense layout, down to the boundary where
// each residue class holds exactly Ways lines; the last has one line more
// and stays set-associative. The reference keeps every configured way.
// The dense layout's ForEach visits lines in ascending order, so for those
// rows the reference contents are sorted by line before comparing.
func TestSplitLayoutMatchesReference(t *testing.T) {
	geoms := []struct {
		cfg   config.CXLConfig
		hosts int
		lines int64       // domain passed to NewDeviceDir
		base  config.Addr // first line of the domain and of the drawn range
		space int64       // lines drawn from
		dense bool        // NewDeviceDir takes the dense layout
	}{
		{config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2}, 4, anyLines, 0, 48, false},
		{config.CXLConfig{DirSets: 8, DirWays: 16, DirSlices: 4}, 16, anyLines, 0, 3 * 512, false},
		{config.CXLConfig{DirSets: 2, DirWays: 4, DirSlices: 1}, 256, anyLines, 0, 24, false},
		{config.CXLConfig{DirSets: 2, DirWays: 16, DirSlices: 1}, 64, anyLines, 0, 3 * 32, false},
		{config.CXLConfig{DirSets: 4, DirWays: 12, DirSlices: 2}, 8, anyLines, 3, 3 * 96, false},
		{config.CXLConfig{DirSets: 16, DirWays: 16, DirSlices: 4}, 4, 100, 1<<24 + 5, 100, true},
		{config.CXLConfig{DirSets: 16, DirWays: 16, DirSlices: 4}, 256, 64, 12345, 64, true},
		{config.CXLConfig{DirSets: 8, DirWays: 4, DirSlices: 2}, 16, 48, 7, 48, true},
		{config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2}, 4, 16, 3, 16, true},
		{config.CXLConfig{DirSets: 4, DirWays: 2, DirSlices: 2}, 4, 17, 3, 17, false},
	}
	for gi, g := range geoms {
		shift := SharerShiftFor(g.hosts)
		for seed := int64(1); seed <= 8; seed++ {
			got, want := NewDeviceDir(g.cfg, g.base, g.lines), newRefDir(g.cfg)
			if (got.dense != nil) != g.dense || got.Capacity() != g.cfg.DirSets*g.cfg.DirWays*g.cfg.DirSlices {
				t.Fatalf("geometry %d: dense %v, capacity %d; want dense %v, configured capacity",
					gi, got.dense != nil, got.Capacity(), g.dense)
			}
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				line := g.base + config.Addr(rng.Int63n(g.space))
				h := rng.Intn(g.hosts)
				var a, b any
				switch r := rng.Intn(100); {
				case r < 25:
					ga, gb := got.Lookup(line)
					wa, wb := want.Lookup(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 30:
					ga, gb := got.Peek(line)
					wa, wb := want.Peek(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 65:
					e := Entry{State: DirModified, Owner: int16(h)}
					switch rng.Intn(3) {
					case 0:
						// Summary-mode sets require distinct members.
						e = Entry{State: DirShared, Sharers: SharerSetOf(shift, h, (h+1)%g.hosts)}
					case 1:
						e = Entry{State: DirInvalid}
					}
					ga, gb := got.Update(line, e)
					wa, wb := want.Update(line, e)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				case r < 90:
					if rng.Intn(2) == 0 {
						// Aim at a member: the owner or a sharer when present.
						if e, ok := want.Peek(line); ok {
							h = int(e.Owner)
							if e.State == DirShared {
								it := e.Sharers.Iter(g.hosts)
								it.Next()
								h = it.Host()
							}
						}
					}
					a, b = got.RemoveSharer(line, h), want.RemoveSharer(line, h)
				default:
					ga, gb := got.Remove(line)
					wa, wb := want.Remove(line)
					a, b = [2]any{ga, gb}, [2]any{wa, wb}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("geometry %d seed %d op %d (line %d host %d): split %+v, reference %+v",
						gi, seed, op, line, h, a, b)
				}
			}
			for s := range want.slices {
				if got.SliceStats(s) != want.slices[s].stats || got.SliceOccupancy(s) != want.slices[s].occ {
					t.Fatalf("geometry %d seed %d slice %d: stats %+v occ %d, reference %+v occ %d", gi, seed, s,
						got.SliceStats(s), got.SliceOccupancy(s), want.slices[s].stats, want.slices[s].occ)
				}
			}
			var gc, wc []dirItem
			got.ForEach(func(l config.Addr, e Entry) { gc = append(gc, dirItem{l, e}) })
			want.ForEach(func(l config.Addr, e Entry) { wc = append(wc, dirItem{l, e}) })
			if g.dense {
				sort.Slice(wc, func(i, j int) bool { return wc[i].line < wc[j].line })
			}
			if !reflect.DeepEqual(gc, wc) {
				t.Fatalf("geometry %d seed %d: contents differ (%d vs %d entries)", gi, seed, len(gc), len(wc))
			}
		}
	}
}

// The field order of Entry is chosen for size: a way costs an 8-byte tag
// plus a 24-byte entry, and each set one 8-byte recency word.
func TestWayFootprint(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s != 24 {
		t.Errorf("Entry is %d bytes, want 24", s)
	}
}
