// Package coherence implements the directory state of the multi-host
// CXL-DSM protocol (§2.2 of the paper): the device coherence directory on
// the CXL memory node, which tracks — per CXL-memory cache line resident in
// any processor's cache — the coherence state and the set of caching hosts.
//
// The PIPM I' state ("migrated to a host's local memory, not cached") is
// deliberately NOT stored here: the paper encodes it as directory-Invalid
// plus the per-line in-memory bit (held by internal/core), which is also why
// PIPM *reduces* device-directory pressure — migrated lines need no entry.
package coherence

import (
	"fmt"

	"pipm/internal/cache"
	"pipm/internal/config"
)

// DirState is a device-directory entry's state at host granularity.
type DirState uint8

const (
	// DirInvalid: no host caches the line (no entry).
	DirInvalid DirState = iota
	// DirShared: one or more hosts hold clean copies; CXL memory is valid.
	DirShared
	// DirModified: exactly one host holds the latest (dirty) copy.
	DirModified
)

func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "I"
	case DirShared:
		return "S"
	default:
		return "M"
	}
}

// Entry is one directory entry's visible content. The field order packs
// it into 24 bytes (the 16-byte SharerSet first, then the small fields).
type Entry struct {
	Sharers SharerSet // caching hosts (valid in S)
	Owner   int16     // owning host (valid in M)
	State   DirState
}

// BackInvalidation reports a line displaced from the directory for capacity;
// the protocol must invalidate (and for M, write back) the hosts' copies.
type BackInvalidation struct {
	Line  config.Addr
	Entry Entry
}

// Stats counts directory events. Per-slice stats additionally count the
// batched shootdown traffic the machine routes through each slice.
type Stats struct {
	Lookups    uint64
	HitS       uint64
	HitM       uint64
	MissI      uint64
	Installs   uint64
	BackInvals uint64

	// Shootdown rounds noted against this slice: Batches is the number of
	// inter-host messages actually sent (one per sharer in the exact
	// regime, one per presence region in the summary regime), Targets the
	// number of hosts those messages covered. Batches < Targets is the
	// multicast saving of coarse sharer tracking.
	ShootdownBatches uint64
	ShootdownTargets uint64
}

func (s *Stats) add(o Stats) {
	s.Lookups += o.Lookups
	s.HitS += o.HitS
	s.HitM += o.HitM
	s.MissI += o.MissI
	s.Installs += o.Installs
	s.BackInvals += o.BackInvals
	s.ShootdownBatches += o.ShootdownBatches
	s.ShootdownTargets += o.ShootdownTargets
}

// dirSlice is one address-hashed slice of the directory: its own ways,
// per-set recency words, O(1) occupancy counter and event counters.
//
// Tags are kept apart from the entries (DESIGN.md §16.3), so a 16-way
// probe scans 128 bytes of tags instead of 512 bytes of {tag, entry}
// ways; an entry is touched only once its tag matched or it is the victim.
type dirSlice struct {
	tags    []config.Addr // sets*ways; line+1, 0 = invalid
	entries []Entry       // sets*ways
	rec     cache.Recency
	occ     int
	stats   Stats
}

// find returns the flat index of line's valid way in the set starting at
// base, or -1.
func (sl *dirSlice) find(base, ways int, line config.Addr) int {
	for i, t := range sl.tags[base : base+ways] {
		if t == line+1 {
			return base + i
		}
	}
	return -1
}

// drop invalidates way i.
func (sl *dirSlice) drop(i int) {
	sl.tags[i] = 0
	sl.entries[i] = Entry{}
	sl.occ--
}

// DeviceDir is the sliced, set-associative device coherence directory.
// Geometry comes from Table 2: Sets × Ways per slice, Slices slices; lines
// hash to a slice then index a set within it. Both counts must be powers
// of two — the slice hash is a mask, and harness.ScaleForHosts grows the
// slice count with the host count so lookup ports keep pace.
type DeviceDir struct {
	sets, ways int // ways as stored: at most the configured count
	capacity   int // configured entries, Sets × Ways × Slices
	sliceMask  config.Addr
	sliceShift uint
	slices     []dirSlice
}

// NewDeviceDir builds the directory from CXL configuration, for a memory
// of the given number of lines in one contiguous range (the CXL pool);
// only those lines may be installed.
//
// A set only ever holds lines of its own residue class modulo Slices ×
// Sets, and a contiguous range puts at most ceil(lines/(Slices×Sets)) lines
// in any class. Ways beyond that count can never be occupied, so they are
// not stored: every lookup, install and back-invalidation is the same as
// with the configured ways (DESIGN.md §16.3).
func NewDeviceDir(cfg config.CXLConfig, lines int64) *DeviceDir {
	if cfg.DirSets <= 0 || cfg.DirSets&(cfg.DirSets-1) != 0 {
		panic(fmt.Sprintf("coherence: %d directory sets is not a power of two", cfg.DirSets))
	}
	if cfg.DirSlices <= 0 || cfg.DirSlices&(cfg.DirSlices-1) != 0 {
		panic(fmt.Sprintf("coherence: %d directory slices is not a power of two", cfg.DirSlices))
	}
	if cfg.DirWays < 1 || cfg.DirWays > config.MaxWays {
		panic(fmt.Sprintf("coherence: %d directory ways is outside 1..%d", cfg.DirWays, config.MaxWays))
	}
	ways := cfg.DirWays
	classes := int64(cfg.DirSlices) * int64(cfg.DirSets)
	if most := (lines + classes - 1) / classes; most < int64(ways) {
		ways = int(max(most, 1))
	}
	d := &DeviceDir{
		sets:       cfg.DirSets,
		ways:       ways,
		capacity:   cfg.DirSets * cfg.DirWays * cfg.DirSlices,
		sliceMask:  config.Addr(cfg.DirSlices - 1),
		sliceShift: uint(log2(cfg.DirSlices)),
		slices:     make([]dirSlice, cfg.DirSlices),
	}
	for i := range d.slices {
		d.slices[i].tags = make([]config.Addr, cfg.DirSets*ways)
		d.slices[i].entries = make([]Entry, cfg.DirSets*ways)
		d.slices[i].rec = cache.NewRecency(cfg.DirSets, ways)
	}
	return d
}

// Capacity returns the configured number of entries, Sets × Ways × Slices.
func (d *DeviceDir) Capacity() int { return d.capacity }

// Slices returns the slice count.
func (d *DeviceDir) Slices() int { return len(d.slices) }

// SliceFor returns the slice index line hashes to.
func (d *DeviceDir) SliceFor(line config.Addr) int { return int(line & d.sliceMask) }

// setFor returns line's slice, its set within the slice and the flat index
// of the set's first way.
func (d *DeviceDir) setFor(line config.Addr) (sl *dirSlice, set, base int) {
	set = int(line>>d.sliceShift) & (d.sets - 1)
	return &d.slices[line&d.sliceMask], set, set * d.ways
}

// log2 returns the exponent of a power of two.
func log2(n int) int {
	e := 0
	for n > 1 {
		n >>= 1
		e++
	}
	return e
}

// Lookup returns the entry for line, if present. It does not refresh LRU;
// the Update that acts on the entry does.
func (d *DeviceDir) Lookup(line config.Addr) (Entry, bool) {
	sl, _, base := d.setFor(line)
	sl.stats.Lookups++
	if i := sl.find(base, d.ways, line); i >= 0 {
		e := sl.entries[i]
		switch e.State {
		case DirShared:
			sl.stats.HitS++
		case DirModified:
			sl.stats.HitM++
		}
		return e, true
	}
	sl.stats.MissI++
	return Entry{}, false
}

// Peek returns the entry for line without touching LRU order or lookup
// statistics. Directory audits use this instead of Lookup so an audited run
// keeps the exact same stats stream as an unaudited one.
func (d *DeviceDir) Peek(line config.Addr) (Entry, bool) {
	sl, _, base := d.setFor(line)
	if i := sl.find(base, d.ways, line); i >= 0 {
		return sl.entries[i], true
	}
	return Entry{}, false
}

// ForEach invokes fn for every valid entry without touching LRU order or
// statistics (observation-only, for the invariant auditor).
func (d *DeviceDir) ForEach(fn func(line config.Addr, e Entry)) {
	for s := range d.slices {
		sl := &d.slices[s]
		for i, t := range sl.tags {
			if t != 0 {
				fn(t-1, sl.entries[i])
			}
		}
	}
}

// Update installs or replaces the entry for line, returning a capacity
// back-invalidation if a victim in use had to be displaced. Passing an
// entry with State == DirInvalid removes the line's entry instead.
func (d *DeviceDir) Update(line config.Addr, e Entry) (BackInvalidation, bool) {
	sl, set, base := d.setFor(line)
	if i := sl.find(base, d.ways, line); i >= 0 {
		if e.State == DirInvalid {
			sl.drop(i)
		} else {
			sl.entries[i] = e
			sl.rec.Touch(set, i-base)
		}
		return BackInvalidation{}, false
	}
	if e.State == DirInvalid {
		return BackInvalidation{}, false
	}
	tags, entries := sl.tags[base:base+d.ways], sl.entries[base:base+d.ways]
	victim := -1
	for i, t := range tags {
		if t == 0 {
			victim = i
			break
		}
	}
	var bi BackInvalidation
	evicted := victim < 0
	if evicted {
		victim = sl.rec.LRU(set)
		bi = BackInvalidation{Line: tags[victim] - 1, Entry: entries[victim]}
		sl.stats.BackInvals++
	} else {
		sl.occ++
	}
	tags[victim] = line + 1
	entries[victim] = e
	sl.rec.Touch(set, victim)
	sl.stats.Installs++
	return bi, evicted
}

// Remove drops line's entry (eviction notifications from hosts), returning
// the entry it held.
func (d *DeviceDir) Remove(line config.Addr) (Entry, bool) {
	sl, _, base := d.setFor(line)
	i := sl.find(base, d.ways, line)
	if i < 0 {
		return Entry{}, false
	}
	e := sl.entries[i]
	sl.drop(i)
	return e, true
}

// RemoveSharer clears host h from line's sharer set, dropping the entry when
// the set empties. It reports whether an entry remains.
func (d *DeviceDir) RemoveSharer(line config.Addr, h int) bool {
	sl, _, base := d.setFor(line)
	i := sl.find(base, d.ways, line)
	if i < 0 {
		return false
	}
	e := &sl.entries[i]
	switch e.State {
	case DirShared:
		e.Sharers = e.Sharers.Without(h)
		if e.Sharers.Empty() {
			sl.drop(i)
			return false
		}
	case DirModified:
		if int(e.Owner) == h {
			sl.drop(i)
			return false
		}
	}
	return true
}

// NoteShootdown records an invalidation round the machine priced against
// line's slice: batches inter-host messages covering targets hosts.
func (d *DeviceDir) NoteShootdown(line config.Addr, batches, targets int) {
	sl := &d.slices[line&d.sliceMask]
	sl.stats.ShootdownBatches += uint64(batches)
	sl.stats.ShootdownTargets += uint64(targets)
}

// Occupancy returns the number of valid entries (O(1) per slice).
func (d *DeviceDir) Occupancy() int {
	n := 0
	for i := range d.slices {
		n += d.slices[i].occ
	}
	return n
}

// SliceOccupancy returns slice s's valid-entry count.
func (d *DeviceDir) SliceOccupancy(s int) int { return d.slices[s].occ }

// SliceStats returns slice s's accumulated counters.
func (d *DeviceDir) SliceStats(s int) Stats { return d.slices[s].stats }

// Stats returns counters accumulated across all slices.
func (d *DeviceDir) Stats() Stats {
	var t Stats
	for i := range d.slices {
		t.add(d.slices[i].stats)
	}
	return t
}
