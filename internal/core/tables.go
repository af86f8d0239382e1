// Package core implements the PIPM hardware proper (§4 of the paper): the
// global remapping table on the CXL memory node, the per-host local
// remapping tables (views of one page-indexed store all hosts share), the
// on-die remapping caches in front of both, the Boyer–Moore-style
// majority-vote migration policy, and the per-line migrated-state bitmaps
// that realize the in-memory I'/ME bits.
package core

import (
	"fmt"
	"math"
)

// Sentinel host value meaning "none".
const NoHost = -1

// Counter widths from §4.2/§4.4: the global vote counter is 6 bits, the
// local (revocation) counter 4 bits.
const (
	GlobalCounterMax = 63
	LocalCounterMax  = 15
)

// GlobalEntry is one global remapping table record. In hardware this is 2
// bytes up to 32 hosts (5-bit current host, 5-bit candidate host, 6-bit
// counter) and 3 bytes beyond (8b+8b+6b; config.GlobalRemapEntrySize); the
// simulator always keeps the wide form.
type GlobalEntry struct {
	CurHost  int16 // host the page is partially migrated to, or NoHost
	CandHost int16 // majority-vote candidate, or NoHost
	Counter  uint8 // candidate's lead over all other hosts
}

// GlobalTable is the in-memory global remapping table: one entry per
// CXL-DSM page, resident in CXL memory (the remapping cache in front of it
// is modelled by RemapCache). It keeps an O(1) owned-page counter the
// auditor cross-checks against the local tables.
type GlobalTable struct {
	entries []GlobalEntry
	owned   int // pages with CurHost != NoHost
}

// NewGlobalTable allocates entries for pages CXL-DSM pages, all unmigrated.
func NewGlobalTable(pages int64) *GlobalTable {
	t := &GlobalTable{entries: make([]GlobalEntry, pages)}
	for i := range t.entries {
		t.entries[i] = GlobalEntry{CurHost: NoHost, CandHost: NoHost}
	}
	return t
}

// Pages returns the number of pages covered.
func (t *GlobalTable) Pages() int64 { return int64(len(t.entries)) }

// Entry returns a pointer to page's record. Page indices are dense and
// bounds-checked by the slice access. Callers must not change CurHost
// through the pointer — use SetOwner, which maintains the owned-page
// counter.
func (t *GlobalTable) Entry(page int64) *GlobalEntry {
	return &t.entries[page]
}

// SetOwner moves page's CurHost to h (NoHost to clear), maintaining the
// owned-page counter.
func (t *GlobalTable) SetOwner(page int64, h int) {
	e := &t.entries[page]
	if (e.CurHost != NoHost) != (h != NoHost) {
		if h != NoHost {
			t.owned++
		} else {
			t.owned--
		}
	}
	e.CurHost = int16(h)
}

// OwnedPages returns the number of pages currently migrated to any host.
func (t *GlobalTable) OwnedPages() int { return t.owned }

// LocalEntry is one per-host local remapping table record (4 bytes in
// hardware: 28-bit local PFN + 4-bit counter). The simulator additionally
// keeps the page's migrated-line bitmap here; in hardware those bits live
// with the data (ECC spare bits) in both local and CXL memory, but they are
// only meaningful for pages that have a local entry, so this placement is
// behaviourally identical and saves a parallel structure.
type LocalEntry struct {
	PFN     uint32 // page frame in this host's local DRAM
	Counter uint8  // revocation counter
	Bitmap  uint64 // bit l set ⇔ line l of the page is migrated (I'/ME side)
}

// leafEntries is the leaf size of §4.4's two-level radix table, which
// SizeBytes charges one 8-byte root entry per.
const leafEntries = 1024

// localStore holds every host's local remapping entries, indexed by page.
// PIPM partially migrates a page to at most one host, the global entry's
// CurHost (§4.2), so one slot per page serves the whole cluster.
type localStore struct {
	owner   []uint16     // holding host+1, 0 = no entry
	entries []LocalEntry // allocated on the first Insert
}

// LocalTable is one host's local remapping table: its view of the shared
// page-indexed store, holding the entries whose owner tag is the host's.
// Only pages partially migrated to this host have entries.
type LocalTable struct {
	s       *localStore
	tag     uint16 // host+1
	count   int    // live entries
	lines   int    // migrated lines across entries
	nextPFN uint32
}

// NewLocalTables returns the local tables of hosts hosts over one shared
// store covering pages CXL-DSM pages; table h is host h's.
func NewLocalTables(pages int64, hosts int) []LocalTable {
	s := &localStore{owner: make([]uint16, pages)}
	ts := make([]LocalTable, hosts)
	for h := range ts {
		ts[h] = LocalTable{s: s, tag: uint16(h + 1)}
	}
	return ts
}

// Lookup returns the entry for page when this host holds it.
func (t *LocalTable) Lookup(page int64) (*LocalEntry, bool) {
	if t.s.owner[page] != t.tag {
		return nil, false
	}
	return &t.s.entries[page], true
}

// Insert creates an entry for page with a freshly allocated local PFN and
// the given initial counter. Inserting a page any host already holds
// panics: the policy must never double-promote.
func (t *LocalTable) Insert(page int64, counter uint8) *LocalEntry {
	s := t.s
	if o := s.owner[page]; o != 0 {
		panic(fmt.Sprintf("core: local remap insert of page %d at host %d, already held by host %d", page, t.tag-1, o-1))
	}
	if t.nextPFN == math.MaxUint32 {
		panic("core: local PFN space exhausted")
	}
	if s.entries == nil {
		s.entries = make([]LocalEntry, len(s.owner))
	}
	s.owner[page] = t.tag
	s.entries[page] = LocalEntry{PFN: t.nextPFN, Counter: counter}
	t.nextPFN++
	t.count++
	return &s.entries[page]
}

// Remove drops page's entry, returning the entry it held.
func (t *LocalTable) Remove(page int64) (LocalEntry, bool) {
	e, ok := t.Lookup(page)
	if !ok {
		return LocalEntry{}, false
	}
	old := *e
	*e = LocalEntry{}
	t.s.owner[page] = 0
	t.count--
	t.lines -= popcount(old.Bitmap)
	return old, true
}

// MigrateLine sets the migrated bit of line l (0..63) of page. It reports
// whether the bit was newly set; a page without an entry here sets nothing.
func (t *LocalTable) MigrateLine(page int64, l int) bool {
	e, ok := t.Lookup(page)
	bit := uint64(1) << uint(l)
	if !ok || e.Bitmap&bit != 0 {
		return false
	}
	e.Bitmap |= bit
	t.lines++
	return true
}

// DemoteLine clears the migrated bit of line l of page, reporting whether
// it was set.
func (t *LocalTable) DemoteLine(page int64, l int) bool {
	e, ok := t.Lookup(page)
	bit := uint64(1) << uint(l)
	if !ok || e.Bitmap&bit == 0 {
		return false
	}
	e.Bitmap &^= bit
	t.lines--
	return true
}

// Count returns the number of live entries (pages partially migrated here).
func (t *LocalTable) Count() int { return t.count }

// MigratedLines returns the total number of migrated lines across entries.
func (t *LocalTable) MigratedLines() int { return t.lines }

// SizeBytes returns the current in-memory footprint: the fixed root plus
// 4 B per entry, matching §4.4's 32MB + 4B/4KB × RSS formula (we charge the
// root proportionally to its configured coverage rather than a fixed 32 MB,
// since simulated pools are scaled down).
func (t *LocalTable) SizeBytes() int64 {
	roots := (int64(len(t.s.owner)) + leafEntries - 1) / leafEntries
	return roots*8 + 4*int64(t.count)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
