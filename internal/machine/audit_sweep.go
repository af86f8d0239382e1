package machine

import (
	"fmt"
	"math/bits"

	"pipm/internal/audit"
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	pipmcore "pipm/internal/core"
	"pipm/internal/migration"
	"pipm/internal/sim"
)

// The whole-state sweep: at a consistent point (quantum boundary, or after
// an access/epoch tick in paranoid mode) the machine aggregates every host's
// cached view of each shared line, joins it with the device directory and the
// family's migration state, and hands compact fact records to the audit
// package's rules. Everything here reads through observation-only accessors
// (Peek/ForEach) — an audited run's Result is bit-identical to an unaudited
// one — and reuses epoch-stamped scratch arrays so repeated sweeps don't
// churn the heap.

// lineAgg accumulates one shared line's cross-host state during a sweep.
type lineAgg struct {
	stamp     uint32
	holders   coherence.HostSet // hosts with a valid LLC copy
	shared    coherence.HostSet // hosts holding Shared
	l1        coherence.HostSet // hosts with any L1 copy
	exclCount uint8
	exclHost  int16
	exclState cache.State
	hasDir    bool
	dir       coherence.Entry
}

// auditScratch is the sweep's reusable working set. The agg array covers the
// whole shared region indexed by line; the epoch stamp makes "clearing" it
// an O(1) counter bump.
type auditScratch struct {
	baseLine  config.Addr // first shared line address
	lines     int64       // shared lines
	stamp     uint32
	agg       []lineAgg
	touched   []int32
	pageStamp []uint32 // per-page epoch marks (remap-cache duplicate detection)
	pageEpoch uint32
	// Pre-built remap-cache names so sweeps don't format strings.
	lcNames []string
	// Host-sized residency recount scratch (the host cap is 256 now, so a
	// fixed [32] array no longer covers every cluster).
	walkPages, walkLines []int64
}

func (a *auditScratch) init(m *Machine) {
	a.baseLine = m.amap.SharedAddr(0) >> config.LineShift
	a.lines = int64(m.amap.SharedBytes()) / config.LineBytes
	a.agg = make([]lineAgg, a.lines)
	a.touched = make([]int32, 0, 4096)
	a.pageStamp = make([]uint32, m.cfg.SharedPages())
	for h := 0; h < m.cfg.Hosts; h++ {
		a.lcNames = append(a.lcNames, fmt.Sprintf("h%d.local-remap-cache", h))
	}
	a.walkPages = make([]int64, m.cfg.Hosts)
	a.walkLines = make([]int64, m.cfg.Hosts)
}

// aggFor returns the scratch cell for a line address, lazily resetting it on
// first touch this sweep; nil for lines outside the shared region.
func (m *Machine) aggFor(line config.Addr) *lineAgg {
	a := &m.audScratch
	idx := int64(line) - int64(a.baseLine)
	if idx < 0 || idx >= a.lines {
		return nil
	}
	g := &a.agg[idx]
	if g.stamp != a.stamp {
		*g = lineAgg{stamp: a.stamp, exclHost: -1}
		a.touched = append(a.touched, int32(idx))
	}
	return g
}

// auditSweep walks the machine state once and applies every rule. The
// remap-cache content walks are O(cache capacity) — far more than the live
// protocol state — so they run only on full sweeps (the periodic tick and
// the closing sweep); per-transition paranoid sweeps pass full=false and
// keep every line-, page- and conservation-level check.
func (m *Machine) auditSweep(full bool) {
	if m.aud == nil {
		return
	}
	m.aud.NoteSweep()
	a := &m.audScratch
	a.stamp++
	a.touched = a.touched[:0]
	now := m.eng.Now()

	// Pass 1: aggregate cached copies and directory entries per line.
	for _, hs := range m.hosts {
		hid := int16(hs.id)
		hs.llc.ForEach(func(line config.Addr, st cache.State) {
			g := m.aggFor(line)
			if g == nil {
				return
			}
			g.holders.Add(hs.id)
			if st == cache.Shared {
				g.shared.Add(hs.id)
			} else {
				g.exclCount++
				g.exclHost = hid
				g.exclState = st
			}
		})
		for _, c := range hs.cores {
			c.l1.ForEach(func(line config.Addr, _ cache.State) {
				if g := m.aggFor(line); g != nil {
					g.l1.Add(hs.id)
				}
			})
		}
	}
	// Directory entries are joined by probing each cached line rather than
	// scanning all of the directory's storage (one entry per pool line in
	// the dense layout, sets×ways×slices ways in the set-associative one,
	// nearly all invalid either way): Peek is one index per touched line in
	// the dense layout and O(ways) in the set-associative one. Any entry NOT
	// covered by a cached line is a conservation violation ("dir entry with
	// no holders") — those can't be found by probing, so the probe count is
	// cross-checked against Occupancy and the full scan runs only on
	// mismatch, to name the strays.
	dirFound := 0
	for _, idx := range a.touched {
		g := &a.agg[idx]
		if e, ok := m.devDir.Peek(a.baseLine + config.Addr(idx)); ok {
			g.hasDir = true
			g.dir = e
			dirFound++
		}
	}
	if dirFound != m.devDir.Occupancy() {
		m.devDir.ForEach(func(line config.Addr, e coherence.Entry) {
			if g := m.aggFor(line); g != nil && !g.hasDir {
				g.hasDir = true
				g.dir = e
			}
		})
	}

	// Pass 2: per-line rules over every line that is cached or tracked.
	var f audit.LineFacts
	for _, idx := range a.touched {
		g := &a.agg[idx]
		f = audit.LineFacts{
			Line:        a.baseLine + config.Addr(idx),
			HolderMask:  g.holders,
			SharedMask:  g.shared,
			L1StrayMask: g.l1.Minus(g.holders),
			ExclCount:   int(g.exclCount),
			ExclHost:    int(g.exclHost),
			ExclState:   g.exclState,
			HasDir:      g.hasDir,
			Dir:         g.dir,
		}
		m.ownerFacts(&f, int64(idx))
		m.aud.CheckLine(now, m.trc, m.family, &f)
	}

	// Pass 3: family state tables, flow conservation, footprint accounting.
	if m.mgr != nil {
		m.auditHardwareTables(now, full)
	}
	if m.pt != nil {
		m.auditKernelTable(now)
	}
}

// auditHardwareTables checks global/local remap-table agreement, counter
// ranges, remap-cache integrity, flow conservation, and footprint gauges.
func (m *Machine) auditHardwareTables(now sim.Time, full bool) {
	pages := m.cfg.SharedPages()
	hosts := m.cfg.Hosts
	walkPages, walkLines := m.audScratch.walkPages, m.audScratch.walkLines
	for h := range walkPages {
		walkPages[h], walkLines[h] = 0, 0
	}
	var pf audit.PageFacts
	for page := int64(0); page < pages; page++ {
		ge := m.mgr.GlobalEntryAt(page)
		cur := int(ge.CurHost)
		pf = audit.PageFacts{
			Page:      page,
			GlobalCur: cur,
			GlobalCnd: int(ge.CandHost),
			GlobalCnt: ge.Counter,
			Hosts:     hosts,
		}
		if h, le, ok := m.mgr.LocalHolder(page); ok {
			if h == cur {
				pf.HasLocal = true
				pf.LocalCnt = le.Counter
			} else {
				pf.OtherLocalMask.Add(h)
			}
			walkPages[h]++
			walkLines[h] += int64(bits.OnesCount64(le.Bitmap))
		}
		m.aud.CheckPage(now, m.trc, &pf)
	}

	var totPages, totLines int64
	for h := 0; h < hosts; h++ {
		m.aud.CheckAccounting(now, m.trc, &audit.AccountingFacts{
			Host: h, What: "pages", Gauge: m.residentPages(h), Walk: walkPages[h]})
		m.aud.CheckAccounting(now, m.trc, &audit.AccountingFacts{
			Host: h, What: "lines", Gauge: m.residentLines(h), Walk: walkLines[h]})
		totPages += walkPages[h]
		totLines += walkLines[h]
	}
	// The global table's O(1) owned-page counter (kept by SetOwner) must
	// agree with the owner-side local-table recount.
	m.aud.CheckAccounting(now, m.trc, &audit.AccountingFacts{
		Host: -1, What: "globally-owned pages (OwnedPages)", Gauge: int64(m.mgr.OwnedPages()), Walk: totPages})

	ms := m.mgr.Stats()
	var initial int64
	if m.mgr.Static() {
		initial = pages
	}
	m.aud.CheckConservation(now, m.trc, &audit.ConservationFacts{
		What: "migrated pages", In: ms.Promotions, Out: ms.Revocations,
		Initial: initial, Resident: totPages})
	m.aud.CheckConservation(now, m.trc, &audit.ConservationFacts{
		What: "migrated lines", In: ms.LinesMigrated, Out: ms.LinesDemoted,
		Resident: totLines})

	if full {
		m.auditRemapCache(now, "global-remap-cache", m.mgr.GlobalCache(), pages)
		for h := 0; h < hosts; h++ {
			m.auditRemapCache(now, m.audScratch.lcNames[h], m.mgr.LocalCache(h), pages)
		}
	}
}

// auditRemapCache validates one remap cache's walked content: in-range page
// indices, no duplicate tags, occupancy within capacity.
func (m *Machine) auditRemapCache(now sim.Time, name string, rc *pipmcore.RemapCache, pages int64) {
	a := &m.audScratch
	a.pageEpoch++
	f := audit.CacheBoundFacts{Name: name, Capacity: rc.Entries(), Pages: pages, MinPage: 1 << 62}
	rc.ForEachCached(func(page int64) {
		f.Cached++
		if page < f.MinPage {
			f.MinPage = page
		}
		if page > f.MaxPage {
			f.MaxPage = page
		}
		if page >= 0 && page < pages {
			if a.pageStamp[page] == a.pageEpoch {
				f.Dups++
			} else {
				a.pageStamp[page] = a.pageEpoch
			}
		}
	})
	if f.Cached == 0 {
		f.MinPage = 0
	}
	m.aud.CheckRemapCache(now, m.trc, &f)
}

// auditKernelTable recounts page-table residency against the counters the
// footprint gauges read.
func (m *Machine) auditKernelTable(now sim.Time) {
	pages := m.cfg.SharedPages()
	walk := m.audScratch.walkPages
	for h := range walk {
		walk[h] = 0
	}
	for page := int64(0); page < pages; page++ {
		if o := m.pt.Owner(page); o != migration.ToCXL {
			walk[o]++
		}
	}
	for h := 0; h < m.cfg.Hosts; h++ {
		m.aud.CheckAccounting(now, m.trc, &audit.AccountingFacts{
			Host: h, What: "pages", Gauge: m.residentPages(h), Walk: walk[h]})
		m.aud.CheckAccounting(now, m.trc, &audit.AccountingFacts{
			Host: h, What: "lines", Gauge: m.residentLines(h), Walk: walk[h] * config.LinesPerPage})
	}
}
