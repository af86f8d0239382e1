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

// Entry is one directory entry's visible content. The directory stores it
// packed (see DeviceDir); Entry is the form its API takes and returns.
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

// dirSlice is one address-hashed slice of the directory: its O(1)
// occupancy counter and its event counters.
type dirSlice struct {
	occ   int
	stats Stats
}

// The fields of a packed entry's meta word.
const (
	metaState    = 0x3 // bits 0–1: the DirState, 0 = no entry
	metaCountPos = 2   // bits 2–10: the sharer count, at most config.MaxHosts
	metaCount    = 0x1ff << metaCountPos
	metaShiftPos = 11 // bits 11–12: the region shift
	maxShift     = 3
)

// DeviceDir is the sliced device coherence directory. Geometry comes from
// Table 2: Sets × Ways per slice, Slices slices; lines hash to a slice then
// index a set within it. Both counts must be powers of two — the slice hash
// is a mask, and harness.ScaleForHosts grows the slice count with the host
// count so lookup ports keep pace.
//
// Entries are stored packed, 10 bytes a slot (DESIGN.md §16.3): word[slot]
// holds the sharer bits in S and the owner in M, meta[slot] the state, the
// sharer count and the region shift. Only canonical entries are stored —
// S with a zero Owner, M with a zero SharerSet — so the packing is exact,
// and installing any other entry panics.
//
// A geometry in which no set can overflow is stored as one slot per line
// of the pool (the dense layout): slot line-first, with state 0 meaning
// absent. Otherwise a slot is a way, slice·Sets·Ways + set·Ways + way, and
// tags (line+1, 0 = invalid) and one recency word per set sit beside the
// entries, so a 16-way probe scans 128 bytes of tags and an entry is
// touched only once its tag matched or it is the victim. Slice occupancy
// and counters are kept the same way in both layouts.
type DeviceDir struct {
	ways       int
	capacity   int // configured entries, Sets × Ways × Slices
	sliceMask  config.Addr
	sliceShift uint        // log2(Slices)
	setBits    uint        // log2(Sets)
	setMask    config.Addr // Sets-1
	slices     []dirSlice

	// The packed entries, indexed by slot.
	word []uint64
	meta []uint16

	first config.Addr // the pool's first line (dense layout)

	// Set-associative layout (nil and empty in the dense one).
	tags []config.Addr // line+1, 0 = invalid
	rec  cache.Recency // per slice·Sets + set
}

// NewDeviceDir builds the directory from CXL configuration, for a memory
// of lines lines starting at line first (the CXL pool); only those lines
// may be installed.
//
// A set only ever holds lines of its own residue class modulo Slices ×
// Sets, and a contiguous range puts at most ceil(lines/(Slices×Sets)) lines
// in any class. When that is at most Ways, an install always finds a free
// way and LRU is never consulted, so the directory is exactly a map from
// line to entry: it is stored as the dense layout, and every lookup,
// install and counter is the same as with the configured ways. A dense
// directory panics on a line outside [first, first+lines).
func NewDeviceDir(cfg config.CXLConfig, first config.Addr, lines int64) *DeviceDir {
	if cfg.DirSets <= 0 || cfg.DirSets&(cfg.DirSets-1) != 0 {
		panic(fmt.Sprintf("coherence: %d directory sets is not a power of two", cfg.DirSets))
	}
	if cfg.DirSlices <= 0 || cfg.DirSlices&(cfg.DirSlices-1) != 0 {
		panic(fmt.Sprintf("coherence: %d directory slices is not a power of two", cfg.DirSlices))
	}
	if cfg.DirWays < 1 || cfg.DirWays > config.MaxWays {
		panic(fmt.Sprintf("coherence: %d directory ways is outside 1..%d", cfg.DirWays, config.MaxWays))
	}
	d := &DeviceDir{
		ways:       cfg.DirWays,
		capacity:   cfg.DirSets * cfg.DirWays * cfg.DirSlices,
		sliceMask:  config.Addr(cfg.DirSlices - 1),
		sliceShift: uint(log2(cfg.DirSlices)),
		setBits:    uint(log2(cfg.DirSets)),
		setMask:    config.Addr(cfg.DirSets - 1),
		slices:     make([]dirSlice, cfg.DirSlices),
	}
	slots := int(lines)
	classes := int64(cfg.DirSlices) * int64(cfg.DirSets)
	if (lines+classes-1)/classes <= int64(cfg.DirWays) {
		d.first = first
	} else {
		slots = d.capacity
		d.tags = make([]config.Addr, slots)
		d.rec = cache.NewRecency(cfg.DirSlices*cfg.DirSets, cfg.DirWays)
	}
	d.word, d.meta = make([]uint64, slots), make([]uint16, slots)
	return d
}

// Capacity returns the configured number of entries, Sets × Ways × Slices.
func (d *DeviceDir) Capacity() int { return d.capacity }

// Slices returns the slice count.
func (d *DeviceDir) Slices() int { return len(d.slices) }

// SliceFor returns the slice index line hashes to.
func (d *DeviceDir) SliceFor(line config.Addr) int { return int(line & d.sliceMask) }

// sliceOf returns the slice line hashes to.
func (d *DeviceDir) sliceOf(line config.Addr) *dirSlice { return &d.slices[line&d.sliceMask] }

// setOf returns line's set in the set-associative layout, numbered
// slice·Sets + set; the set's first way is slot set·Ways.
func (d *DeviceDir) setOf(line config.Addr) int {
	return int(line&d.sliceMask)<<d.setBits + int(line>>d.sliceShift&d.setMask)
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

// slot returns the slot of line's entry, or -1 when line has none. In the
// dense layout a line outside the pool panics. It is written to stay
// within the inliner's budget, so a dense probe costs no call.
func (d *DeviceDir) slot(line config.Addr) int {
	if d.tags == nil {
		if i := int(line - d.first); d.meta[i] != 0 {
			return i
		}
		return -1
	}
	base := d.setOf(line) * d.ways
	for i, t := range d.tags[base : base+d.ways] {
		if t == line+1 {
			return base + i
		}
	}
	return -1
}

// get returns the entry stored at slot i (the zero Entry when empty).
func (d *DeviceDir) get(i int) Entry {
	switch DirState(d.meta[i] & metaState) {
	case DirShared:
		return Entry{State: DirShared, Sharers: d.sharers(i)}
	case DirModified:
		return Entry{State: DirModified, Owner: int16(d.word[i])}
	}
	return Entry{}
}

// sharers returns the sharer set stored at slot i, which is in state S.
func (d *DeviceDir) sharers(i int) SharerSet {
	m := d.meta[i]
	return SharerSet{bits: d.word[i], count: m & metaCount >> metaCountPos, shift: uint8(m >> metaShiftPos)}
}

// put stores e, which must be canonical and valid, at slot i.
func (d *DeviceDir) put(i int, e Entry) {
	s := e.Sharers
	switch {
	case e.State == DirShared && e.Owner == 0 && s.count <= config.MaxHosts && s.shift <= maxShift:
		d.word[i] = s.bits
		d.meta[i] = uint16(DirShared) | s.count<<metaCountPos | uint16(s.shift)<<metaShiftPos
	case e.State == DirModified && s == SharerSet{}:
		d.word[i] = uint64(e.Owner)
		d.meta[i] = uint16(DirModified)
	default:
		panic(nonCanonical(e))
	}
}

// nonCanonical is put's panic value. It is formatted only when printed,
// which keeps put within the inliner's budget.
type nonCanonical Entry

func (e nonCanonical) Error() string {
	return fmt.Sprintf("coherence: directory entry %+v is not canonical", Entry(e))
}

// drop clears slot i of slice sl.
func (d *DeviceDir) drop(sl *dirSlice, i int) {
	d.word[i], d.meta[i] = 0, 0
	if d.tags != nil {
		d.tags[i] = 0
	}
	sl.occ--
}

// Lookup returns the entry for line, if present. It does not refresh LRU;
// the Update that acts on the entry does.
func (d *DeviceDir) Lookup(line config.Addr) (Entry, bool) {
	sl := d.sliceOf(line)
	sl.stats.Lookups++
	i := d.slot(line)
	if i < 0 {
		sl.stats.MissI++
		return Entry{}, false
	}
	e := d.get(i)
	if e.State == DirShared {
		sl.stats.HitS++
	} else {
		sl.stats.HitM++
	}
	return e, true
}

// Peek returns the entry for line without touching LRU order or lookup
// statistics. Directory audits use this instead of Lookup so an audited run
// keeps the exact same stats stream as an unaudited one.
func (d *DeviceDir) Peek(line config.Addr) (Entry, bool) {
	if i := d.slot(line); i >= 0 {
		return d.get(i), true
	}
	return Entry{}, false
}

// ForEach invokes fn for every valid entry without touching LRU order or
// statistics (observation-only, for the invariant auditor), in slot
// order: the dense layout visits lines in ascending order, the
// set-associative one slice by slice in way order.
func (d *DeviceDir) ForEach(fn func(line config.Addr, e Entry)) {
	for i, m := range d.meta {
		if m&metaState == 0 {
			continue
		}
		line := d.first + config.Addr(i)
		if d.tags != nil {
			line = d.tags[i] - 1
		}
		fn(line, d.get(i))
	}
}

// Update installs or replaces the entry for line, returning a capacity
// back-invalidation if a victim in use had to be displaced. Passing an
// entry with State == DirInvalid removes the line's entry instead.
func (d *DeviceDir) Update(line config.Addr, e Entry) (BackInvalidation, bool) {
	if d.tags != nil {
		return d.updateSet(line, e)
	}
	sl := d.sliceOf(line)
	if i := d.slot(line); i >= 0 {
		if e.State == DirInvalid {
			d.drop(sl, i)
		} else {
			d.put(i, e)
		}
		return BackInvalidation{}, false
	}
	if e.State == DirInvalid {
		return BackInvalidation{}, false
	}
	d.put(int(line-d.first), e)
	sl.occ++
	sl.stats.Installs++
	return BackInvalidation{}, false
}

// probe scans a set's tags once. It returns the way holding tag and true,
// or else the first free way (-1 when the set is full) and false.
func probe(tags []config.Addr, tag config.Addr) (int, bool) {
	for w, t := range tags {
		if t == tag {
			return w, true
		}
		if t == 0 {
			// The ways past the first free one need only the tag compare.
			for v, t := range tags[w+1:] {
				if t == tag {
					return w + 1 + v, true
				}
			}
			return w, false
		}
	}
	return -1, false
}

// updateSet is Update in the set-associative layout. One scan of the set's
// tags finds line's way or, when line has none, the first free way; an
// install into a full set displaces the LRU way, which it returns.
func (d *DeviceDir) updateSet(line config.Addr, e Entry) (BackInvalidation, bool) {
	sl := d.sliceOf(line)
	set := d.setOf(line)
	base := set * d.ways
	tags := d.tags[base : base+d.ways]
	way, hit := probe(tags, line+1)
	if hit {
		if e.State == DirInvalid {
			d.drop(sl, base+way)
		} else {
			d.put(base+way, e)
			d.rec.Touch(set, way)
		}
		return BackInvalidation{}, false
	}
	if e.State == DirInvalid {
		return BackInvalidation{}, false
	}
	var bi BackInvalidation
	evicted := way < 0
	if evicted {
		way = d.rec.LRU(set)
		bi = BackInvalidation{Line: tags[way] - 1, Entry: d.get(base + way)}
		sl.stats.BackInvals++
	} else {
		sl.occ++
	}
	tags[way] = line + 1
	d.put(base+way, e)
	d.rec.Touch(set, way)
	sl.stats.Installs++
	return bi, evicted
}

// Remove drops line's entry (eviction notifications from hosts), returning
// the entry it held.
func (d *DeviceDir) Remove(line config.Addr) (Entry, bool) {
	i := d.slot(line)
	if i < 0 {
		return Entry{}, false
	}
	e := d.get(i)
	d.drop(d.sliceOf(line), i)
	return e, true
}

// RemoveSharer clears host h from line's sharer set, dropping the entry when
// the set empties. It reports whether an entry remains. The packed entry
// is edited in place.
func (d *DeviceDir) RemoveSharer(line config.Addr, h int) bool {
	i := d.slot(line)
	if i < 0 {
		return false
	}
	switch m := d.meta[i]; DirState(m & metaState) {
	case DirShared:
		s := d.sharers(i).Without(h)
		if s.Empty() {
			d.drop(d.sliceOf(line), i)
			return false
		}
		d.word[i], d.meta[i] = s.bits, m&^metaCount|s.count<<metaCountPos
	case DirModified:
		if int(int16(d.word[i])) == h {
			d.drop(d.sliceOf(line), i)
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
