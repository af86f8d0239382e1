package core

import "fmt"

// ManagerStats aggregates PIPM policy events.
type ManagerStats struct {
	Promotions    uint64 // pages partially migrated
	Revocations   uint64 // partial migrations revoked
	LinesMigrated uint64 // incremental line migrations into local DRAM
	LinesDemoted  uint64 // lines migrated back to CXL (inter-host access)
	VoteUpdates   uint64 // global-counter updates
}

// Outcome describes what a device-side access did to PIPM state; the
// machine prices the pieces (remap cache hit vs in-memory table walk,
// revocation bulk transfer).
type Outcome struct {
	GCacheHit    bool // global remapping cache hit (miss ⇒ CXL DRAM access)
	Owner        int  // page's current host after the access, or NoHost
	Promoted     bool // this access triggered partial migration to the requester
	Revoked      bool // this access triggered revocation
	RevokedLines int  // migrated lines that must be transferred back on revoke
	RevokedFrom  int  // host the page was revoked from
	// RevokedBitmap is the page's migrated-line bitmap at revocation: which
	// lines' freshest copies lived in the old owner's local DRAM and travel
	// back with the bulk transfer.
	RevokedBitmap uint64
}

// Manager ties the global/local remapping tables, their caches and the
// majority-vote policy together. One Manager serves the whole machine; host
// indices select the per-host local structures.
type Manager struct {
	threshold uint8
	hosts     int
	static    bool

	global *GlobalTable
	gcache *RemapCache
	local  []LocalTable // per-host views of one shared page-indexed store
	lcache []*RemapCache

	// hints holds the §6 software interface's per-page modes (lazily
	// allocated: nil means every page is HintAuto).
	hints []Hint

	stats ManagerStats
}

// Params configures a Manager.
type Params struct {
	Hosts       int
	SharedPages int64
	Threshold   int // majority-vote promotion threshold (1..63)
	// Remap cache capacities in entries: <0 infinite, 0 disabled.
	GlobalCacheEntries int
	GlobalCacheWays    int
	LocalCacheEntries  int
	LocalCacheWays     int
	// Static pre-assigns every page round-robin across hosts and disables
	// the vote policy — the HW-static (Intel Flat Mode-like) baseline.
	Static bool
}

// NewManager builds the PIPM state for a machine.
func NewManager(p Params) *Manager {
	if p.Hosts < 1 || p.Hosts > 256 {
		panic(fmt.Sprintf("core: %d hosts out of range", p.Hosts))
	}
	if p.Threshold < 1 || p.Threshold > GlobalCounterMax {
		panic(fmt.Sprintf("core: threshold %d out of range", p.Threshold))
	}
	m := &Manager{
		threshold: uint8(p.Threshold),
		hosts:     p.Hosts,
		static:    p.Static,
		global:    NewGlobalTable(p.SharedPages, p.Hosts),
		gcache:    NewRemapCache(p.GlobalCacheEntries, p.GlobalCacheWays, p.SharedPages),
		local:     NewLocalTables(p.SharedPages, p.Hosts),
	}
	for h := 0; h < p.Hosts; h++ {
		m.lcache = append(m.lcache, NewRemapCache(p.LocalCacheEntries, p.LocalCacheWays, p.SharedPages))
	}
	if p.Static {
		for page := int64(0); page < p.SharedPages; page++ {
			h := int(page % int64(p.Hosts))
			m.global.SetOwner(page, h)
			m.local[h].Insert(page, LocalCounterMax)
		}
	}
	return m
}

// Hosts returns the host count.
func (m *Manager) Hosts() int { return m.hosts }

// Static reports whether the manager runs the static-mapping baseline.
func (m *Manager) Static() bool { return m.static }

// LocalLookup consults host h's local remapping structures for page. It
// returns the local entry (nil when the page is not migrated to h) and
// whether the local remapping cache hit — a miss means the hardware walked
// the in-memory table, which the machine prices as a local DRAM access.
func (m *Manager) LocalLookup(h int, page int64) (entry *LocalEntry, cacheHit bool) {
	cacheHit = m.lcache[h].Lookup(page)
	entry, _ = m.local[h].Lookup(page)
	return entry, cacheHit
}

// OwnerAccess records a local access by owner h to its partially migrated
// page (saturating increment of the revocation counter). Call it when an
// LLC-missing access at h finds a local remapping entry.
func (m *Manager) OwnerAccess(h int, page int64) {
	if e, ok := m.local[h].Lookup(page); ok && e.Counter < LocalCounterMax {
		e.Counter++
	}
}

// DeviceAccess records that host h's request for page reached the CXL
// device, runs the majority-vote policy, and reports the page's placement.
//
// For unmigrated pages this is the vote of §4.2: the 6-bit counter tracks
// the candidate host's lead; reaching the threshold promotes. For pages
// migrated elsewhere, the requester's access is an inter-host access: it
// decrements the owner's local counter and revokes at zero. The static
// variant only reports ownership.
func (m *Manager) DeviceAccess(h int, page int64) Outcome {
	out := Outcome{Owner: NoHost, RevokedFrom: NoHost}
	out.GCacheHit = m.gcache.Lookup(page)
	e := m.global.Entry(page)

	if e.CurHost != NoHost {
		owner := int(e.CurHost)
		out.Owner = owner
		if m.static || owner == h || m.hintOf(page) == HintPinned {
			return out
		}
		// Inter-host access to a migrated page: revocation pressure.
		le, ok := m.local[owner].Lookup(page)
		if !ok {
			panic(fmt.Sprintf("core: page %d owned by host %d has no local entry", page, owner))
		}
		if le.Counter > 0 {
			le.Counter--
		}
		if le.Counter == 0 {
			removed, _ := m.local[owner].Remove(page)
			m.lcache[owner].Invalidate(page)
			m.global.SetOwner(page, NoHost)
			e.CandHost = NoHost
			e.Counter = 0
			out.Owner = NoHost
			out.Revoked = true
			out.RevokedLines = popcount(removed.Bitmap)
			out.RevokedBitmap = removed.Bitmap
			out.RevokedFrom = owner
			m.stats.Revocations++
			m.stats.LinesDemoted += uint64(out.RevokedLines)
		}
		return out
	}

	if m.static || m.hintOf(page) == HintNoMigrate {
		return out
	}

	// Majority vote on an unmigrated page.
	m.stats.VoteUpdates++
	switch {
	case e.Counter == 0:
		e.CandHost = int16(h)
		e.Counter = 1
	case int(e.CandHost) == h:
		if e.Counter < GlobalCounterMax {
			e.Counter++
		}
	default:
		e.Counter--
	}
	if int(e.CandHost) == h && e.Counter >= m.threshold {
		// Promote: create the local entry; decisions apply immediately
		// (§5.1.4 — no kernel overhead, no whole-page transfer).
		m.global.SetOwner(page, h)
		m.local[h].Insert(page, uint8(m.threshold))
		out.Owner = h
		out.Promoted = true
		m.stats.Promotions++
	}
	return out
}

// MigrateLine sets the migrated bit for line l (0..63) of page at owner h —
// the incremental migration of case ① (Loc-WB of an M/E block of a page
// migrated here). It reports whether the bit was newly set.
func (m *Manager) MigrateLine(h int, page int64, l int) bool {
	if !m.local[h].MigrateLine(page, l) {
		return false
	}
	m.stats.LinesMigrated++
	return true
}

// DemoteLine clears the migrated bit for line l of page at owner h — the
// migrate-back of cases ②⑤⑥ (inter-host access to a migrated line). It
// reports whether the bit was set.
func (m *Manager) DemoteLine(h int, page int64, l int) bool {
	if !m.local[h].DemoteLine(page, l) {
		return false
	}
	m.stats.LinesDemoted++
	return true
}

// LineMigrated reports whether line l of page is migrated at host h.
func (m *Manager) LineMigrated(h int, page int64, l int) bool {
	e, ok := m.local[h].Lookup(page)
	return ok && e.Bitmap&(uint64(1)<<uint(l)) != 0
}

// Owner returns the page's current host, or NoHost.
func (m *Manager) Owner(page int64) int {
	return int(m.global.Entry(page).CurHost)
}

// MigratedPages returns the number of pages partially migrated to host h.
func (m *Manager) MigratedPages(h int) int { return m.local[h].Count() }

// OwnedPages returns the number of pages migrated to any host, from the
// global table's O(1) per-slice occupancy counters (the auditor cross-checks
// this against a full walk).
func (m *Manager) OwnedPages() int { return m.global.OwnedPages() }

// GlobalTableRef exposes the sharded global table for observability (slice
// counts, per-slice occupancy, size accounting).
func (m *Manager) GlobalTableRef() *GlobalTable { return m.global }

// MigratedLines returns the number of lines currently migrated to host h,
// from the local table's O(1) counter (the auditor cross-checks it against a
// full walk).
func (m *Manager) MigratedLines(h int) int { return m.local[h].MigratedLines() }

// GlobalEntryAt returns a value copy of page's global remapping record
// without running the vote policy or touching the remapping caches
// (observation-only, for the invariant auditor).
func (m *Manager) GlobalEntryAt(page int64) GlobalEntry {
	return *m.global.Entry(page)
}

// LocalHolder returns the host whose local table holds page and a value
// copy of its entry, without touching any remapping cache
// (observation-only). The shared store gives a page at most one holder.
func (m *Manager) LocalHolder(page int64) (h int, e LocalEntry, ok bool) {
	s := m.local[0].s
	o := s.owner[page]
	if o == 0 {
		return NoHost, LocalEntry{}, false
	}
	return int(o) - 1, s.entries[page], true
}

// GlobalCache and LocalCache expose the remap caches for stats/latency.
func (m *Manager) GlobalCache() *RemapCache     { return m.gcache }
func (m *Manager) LocalCache(h int) *RemapCache { return m.lcache[h] }

// Stats returns accumulated policy counters.
func (m *Manager) Stats() ManagerStats { return m.stats }
