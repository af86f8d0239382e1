package machine

import (
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/trace"
)

// This file is the invariant memory path (DESIGN.md §11): the L1 → LLC →
// device-directory → DRAM/CXL hierarchy walk, the coherent CXL serve, the
// fill/eviction plumbing and the directory helpers. It never names a
// scheme. Scheme behavior enters through three route functions — bound once
// at build time to one of the per-family route modules (route_kernel.go,
// route_hw.go, route_localonly.go, or the native defaults below), each of
// which acts on its family's own state directly:
//
//	routeShared  classifies a shared access before any cache probe
//	missShared   routes an LLC miss that became memory-visible
//	evictShared  picks the destination of a shared LLC victim
//
// Everything here must stay allocation-free: it runs once per trace record
// (BenchmarkAccessPath pins 0 allocs/op).

// bindNativeRoutes wires the scheme-free defaults: every shared access is
// plain cacheable CXL traffic.
func (m *Machine) bindNativeRoutes() {
	m.routeShared = m.cacheableSharedAt
	m.missShared = m.missSharedCXL
	m.evictShared = m.evictSharedCXL
	m.auditShared = true
}

// access services one memory reference issued at time t by core c. It
// returns the completion time and the class the access was served from.
// State updates (fills, evictions, directory transitions, policy counters)
// are applied at issue time; completion only affects timing.
func (m *Machine) access(t sim.Time, c *coreState, rec trace.Record) (sim.Time, stats.Class) {
	region, _ := m.amap.Region(rec.Addr)
	if region != config.RegionShared {
		return m.privateAccess(t, c, rec)
	}

	page := m.amap.SharedPageIndex(rec.Addr)

	if m.audit && m.auditShared {
		defer m.auditLine(rec.Addr.Line())
	}
	return m.routeShared(t, c, rec, page)
}

// privateAccess is the host-local path: L1 → LLC → local DRAM, no CXL.
func (m *Machine) privateAccess(t sim.Time, c *coreState, rec trace.Record) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()
	st := m.col.Host(h.id)

	if l1st, hit := c.l1.Lookup(line); hit {
		if rec.Write && l1st != cache.Modified {
			// In-host upgrade: the LLC arbitrates, other L1s invalidate.
			c.l1.SetState(line, cache.Modified)
			h.llc.SetState(line, cache.Modified)
			m.invalidateOtherL1s(h, c, line)
		}
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCache, h.id)
		}
		st.Served[stats.ClassL1Hit]++
		return t, stats.ClassL1Hit
	}
	tL := t + m.llcLat
	if llcSt, hit := h.llc.Lookup(line); hit {
		fillSt := llcSt
		if rec.Write {
			fillSt = cache.Modified
			h.llc.SetState(line, cache.Modified)
			m.invalidateOtherL1s(h, c, line)
		}
		m.fillL1(c, line, fillSt)
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCache, h.id)
		}
		st.Served[stats.ClassLLCHit]++
		return tL, stats.ClassLLCHit
	}
	done := h.dram.Access(tL, rec.Addr, false)
	fillSt := cache.Exclusive
	if rec.Write {
		fillSt = cache.Modified
	}
	m.fillLLC(c, line, fillSt)
	m.fillL1(c, line, fillSt)
	if m.vals != nil {
		m.vals.serve(c, line, rec.Write, srcLocal, h.id)
	}
	st.Served[stats.ClassLocalPrivate]++
	return done, stats.ClassLocalPrivate
}

// cacheableSharedAt is every cacheable shared-data path: the L1 and LLC
// probes are scheme-invariant; an LLC miss becomes memory-visible and is
// routed by the bound scheme family.
func (m *Machine) cacheableSharedAt(t sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()
	st := m.col.Host(h.id)

	if l1st, hit := c.l1.Lookup(line); hit {
		if rec.Write && l1st == cache.Shared {
			// Write to a shared line: upgrade through the device directory.
			return m.writeUpgrade(t, c, rec)
		}
		if rec.Write && l1st == cache.Exclusive {
			c.l1.SetState(line, cache.Modified)
			h.llc.SetState(line, cache.Modified)
		}
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCache, h.id)
		}
		st.Served[stats.ClassL1Hit]++
		return t, stats.ClassL1Hit
	}

	tL := t + m.llcLat
	if llcSt, hit := h.llc.Lookup(line); hit {
		if rec.Write && llcSt == cache.Shared {
			return m.writeUpgrade(tL, c, rec)
		}
		fillSt := llcSt
		if rec.Write && (llcSt == cache.Exclusive || llcSt == cache.Modified) {
			fillSt = cache.Modified
			h.llc.SetState(line, cache.Modified)
			m.invalidateOtherL1s(h, c, line)
		}
		m.fillL1(c, line, fillSt)
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCache, h.id)
		}
		st.Served[stats.ClassLLCHit]++
		return tL, stats.ClassLLCHit
	}

	// LLC miss: the access is memory-visible — the scheme family decides
	// where it is served from.
	return m.missShared(tL, c, rec, page)
}

// missSharedCXL is the scheme-free LLC-miss route: plain coherent CXL.
func (m *Machine) missSharedCXL(tL sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	return m.cxlServe(tL, c, rec)
}

// localSharedFill serves a memory-visible shared access from the host's
// local DRAM at addr (the access address for whole-page migration, the
// remapped frame for partial migration) and installs the block as fillSt.
func (m *Machine) localSharedFill(t sim.Time, c *coreState, rec trace.Record, addr config.Addr, fillSt cache.State) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()
	done := h.dram.Access(t, addr, false)
	m.fillLLC(c, line, fillSt)
	m.fillL1(c, line, fillSt)
	if m.vals != nil {
		m.vals.serve(c, line, rec.Write, srcLocal, h.id)
	}
	m.col.Host(h.id).Served[stats.ClassLocalShared]++
	return done, stats.ClassLocalShared
}

const cxlDataBytes = config.LineBytes

// cxlServe is the coherent CXL memory path shared by every cacheable
// scheme: request up, device directory lookup, then — depending on the
// directory state — a direct pooled-DRAM access, an owner forward, or a
// sharer invalidation round.
func (m *Machine) cxlServe(t sim.Time, c *coreState, rec trace.Record) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()
	st := m.col.Host(h.id)

	// Every shared resource is reserved at issue time t (cores issue in
	// near-global time order, so arrivals stay monotone and FCFS queueing
	// is meaningful); the hop latencies then compose additively. Reserving
	// mid-walk instead would interleave deep-walk timestamps with other
	// cores' fresh issues and manufacture queueing that no real link sees.
	upLat := m.fabric.HostToDevice(t, h.id, 0) - t
	dirLat := m.fabric.DirLookup(t, line) - t
	e, ok := m.devDir.Lookup(line)

	var dataLat sim.Time
	fillSt := cache.Exclusive
	switch {
	case ok && e.State == coherence.DirModified && int(e.Owner) != h.id:
		// Owner forward (Fig. 2 ③④): device → owner cache → device.
		g := int(e.Owner)
		dataLat = (m.fabric.DeviceToHost(t, g, 0) - t) + m.llcLat +
			(m.fabric.HostToDevice(t, g, cxlDataBytes) - t)
		m.cxlMem.Access(t, rec.Addr, true) // async: memory now clean
		if m.vals != nil {
			m.vals.forwardServe(c, line, rec.Write, true, g)
		}
		if rec.Write {
			m.invalidateLineEverywhere(m.hosts[g], line)
			m.installDirEntry(line, coherence.Entry{State: coherence.DirModified, Owner: int16(h.id)})
			fillSt = cache.Modified
		} else {
			m.downgradeLineAt(m.hosts[g], line)
			sharers := coherence.NewSharerSet(m.shShift).With(g).With(h.id)
			m.installDirEntry(line, coherence.Entry{State: coherence.DirShared, Sharers: sharers})
			fillSt = cache.Shared
		}

	case ok && e.State == coherence.DirShared:
		if rec.Write {
			// Invalidate every other sharer before granting ownership; the
			// invalidation round-trips overlap, so charge the slowest.
			inv := m.invalidateSharersRound(t, e.Sharers, h.id, line)
			dataLat = inv + (m.cxlMem.Access(t, rec.Addr, false) - t)
			m.installDirEntry(line, coherence.Entry{State: coherence.DirModified, Owner: int16(h.id)})
			fillSt = cache.Modified
		} else {
			dataLat = m.cxlMem.Access(t, rec.Addr, false) - t
			m.installDirEntry(line, coherence.Entry{State: coherence.DirShared, Sharers: e.Sharers.With(h.id)})
			fillSt = cache.Shared
		}
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCXL, 0)
		}

	default:
		// No cached copy anywhere (or we are the recorded owner after an
		// eviction raced the directory): serve from pooled DRAM (Fig. 2 ⑦).
		dataLat = m.cxlMem.Access(t, rec.Addr, false) - t
		if rec.Write {
			fillSt = cache.Modified
		} else {
			fillSt = cache.Exclusive
		}
		m.installDirEntry(line, coherence.Entry{State: coherence.DirModified, Owner: int16(h.id)})
		if m.vals != nil {
			m.vals.serve(c, line, rec.Write, srcCXL, 0)
		}
	}

	downLat := m.fabric.DeviceToHost(t, h.id, cxlDataBytes) - t
	done := t + upLat + dirLat + dataLat + downLat
	m.fillLLC(c, line, fillSt)
	m.fillL1(c, line, fillSt)
	st.Served[stats.ClassCXL]++
	return done, stats.ClassCXL
}

// writeUpgrade obtains write permission for a shared-state line: the device
// directory invalidates other sharers, then grants M.
func (m *Machine) writeUpgrade(t sim.Time, c *coreState, rec trace.Record) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()

	lat := (m.fabric.HostToDevice(t, h.id, 0) - t) + (m.fabric.DirLookup(t, line) - t)
	if e, ok := m.devDir.Lookup(line); ok && e.State == coherence.DirShared {
		lat += m.invalidateSharersRound(t, e.Sharers, h.id, line)
	}
	done := t + lat + (m.fabric.DeviceToHost(t, h.id, 0) - t)
	m.installDirEntry(line, coherence.Entry{State: coherence.DirModified, Owner: int16(h.id)})
	h.llc.Fill(line, cache.Modified)
	c.l1.Fill(line, cache.Modified)
	m.invalidateOtherL1s(h, c, line)
	if m.vals != nil {
		m.vals.serve(c, line, true, srcCache, h.id)
	}
	m.col.Host(h.id).Served[stats.ClassCXL]++
	return done, stats.ClassCXL
}

// ----------------------------------------------------------- fill paths --

// fillL1 installs a line in the requesting core's L1, folding any dirty
// victim into the LLC (free: on-chip).
func (m *Machine) fillL1(c *coreState, line config.Addr, st cache.State) {
	ev, evicted := c.l1.Fill(line, st)
	if evicted && ev.State.Dirty() {
		if s, present := c.host.llc.Peek(ev.Line); present && s != cache.MigratedExclusive {
			c.host.llc.SetState(ev.Line, cache.Modified)
		}
	}
}

// fillLLC installs a line in the host's LLC, handling the displaced victim:
// for the hardware family this is where incremental migration happens.
func (m *Machine) fillLLC(c *coreState, line config.Addr, st cache.State) {
	h := c.host
	ev, evicted := h.llc.Fill(line, st)
	if !evicted {
		return
	}
	m.handleLLCEviction(h, ev)
}

// handleLLCEviction is the scheme-invariant eviction frame: fold L1 copies
// into the victim state, then write private data locally and hand shared
// victims to the bound scheme family.
func (m *Machine) handleLLCEviction(h *host, ev cache.Eviction) {
	// Inclusion: the victim leaves every L1 too; a dirty L1 copy upgrades
	// the victim state.
	vState := ev.State
	for _, oc := range h.cores {
		if st, ok := oc.l1.Invalidate(ev.Line); ok && st.Dirty() && !vState.Dirty() {
			vState = cache.Modified
		}
	}

	addr := ev.Line << config.LineShift
	region, _ := m.amap.Region(addr)
	now := m.eng.Now()

	if region != config.RegionShared {
		m.evictLocalWB(h, now, addr, ev.Line, vState)
		return
	}
	m.evictShared(h, now, m.amap.SharedPageIndex(addr), addr, ev.Line, vState)
}

// evictLocalWB writes a dirty victim back to the host's local DRAM
// (private data, locally-resident pages, the Local-only upper bound).
func (m *Machine) evictLocalWB(h *host, now sim.Time, addr, line config.Addr, vState cache.State) {
	if vState.Dirty() {
		if m.vals != nil {
			m.vals.wbToLocal(h.id, line)
		}
		h.dram.Access(now, addr, true) // async writeback
	}
}

// evictSharedCXL is the scheme-free shared eviction: dirty data writes back
// to CXL memory; clean copies silently leave the directory.
func (m *Machine) evictSharedCXL(h *host, now sim.Time, page int64, addr, line config.Addr, vState cache.State) {
	if vState.Dirty() {
		if m.vals != nil {
			m.vals.wbToCXL(h.id, line)
		}
		t := m.fabric.HostToDeviceBG(now, h.id, cxlDataBytes)
		m.cxlMem.Access(t, addr, true)
		m.devDir.Remove(line)
	} else {
		m.devDir.RemoveSharer(line, h.id)
	}
}

// ------------------------------------------------------------- helpers --

// installDirEntry updates the device directory, servicing any capacity
// back-invalidation (the displaced line leaves all host caches; dirty data
// is written back asynchronously).
func (m *Machine) installDirEntry(line config.Addr, e coherence.Entry) {
	bi, evicted := m.devDir.Update(line, e)
	if !evicted {
		return
	}
	now := m.eng.Now()
	switch bi.Entry.State {
	case coherence.DirModified:
		g := int(bi.Entry.Owner)
		if m.vals != nil {
			m.vals.wbToCXL(g, bi.Line)
		}
		m.invalidateLineEverywhere(m.hosts[g], bi.Line)
		t := m.fabric.HostToDeviceBG(now, g, cxlDataBytes)
		m.cxlMem.Access(t, bi.Line<<config.LineShift, true)
	case coherence.DirShared:
		it := bi.Entry.Sharers.Iter(m.cfg.Hosts)
		for it.Next() {
			m.invalidateLineEverywhere(m.hosts[it.Host()], bi.Line)
		}
	}
}

// invalidateSharersRound invalidates line at every sharer except self,
// returning the slowest invalidation ack round-trip. One shootdown message
// goes to each sharer in the exact regime (≤ 64 hosts — identical pricing
// and fabric-call order to the historical per-sharer loop); in the summary
// regime the sharer set only knows presence regions, so one batched
// multicast message per region prices the round trip and every host of the
// region drops its copies — over-invalidation is the documented cost of
// coarse tracking. Message and target counts land on line's directory
// slice. (The iterator is a stack value: a ForEachSharer closure would
// capture locals and allocate on the hot path.)
func (m *Machine) invalidateSharersRound(t sim.Time, set coherence.SharerSet, self int, line config.Addr) sim.Time {
	var inv sim.Time
	shift := set.Shift()
	batches, targets := 0, 0
	region := -1
	it := set.Iter(m.cfg.Hosts)
	for it.Next() {
		g := it.Host()
		if g == self {
			continue
		}
		if r := g >> shift; r != region {
			// First host of a new batch carries the message round-trip; in
			// exact mode every host is its own region, so this is per-sharer.
			region = r
			ack := (m.fabric.DeviceToHost(t, g, 0) - t) + (m.fabric.HostToDevice(t, g, 0) - t)
			inv = sim.Max(inv, ack)
			batches++
		}
		m.invalidateLineEverywhere(m.hosts[g], line)
		targets++
	}
	if targets > 0 {
		m.devDir.NoteShootdown(line, batches, targets)
	}
	return inv
}

// invalidateLineEverywhere drops a line from a host's LLC and every L1.
func (m *Machine) invalidateLineEverywhere(h *host, line config.Addr) {
	h.llc.Invalidate(line)
	for _, oc := range h.cores {
		oc.l1.Invalidate(line)
	}
}

// downgradeLineAt moves a host's copies of line to Shared.
func (m *Machine) downgradeLineAt(h *host, line config.Addr) {
	h.llc.SetState(line, cache.Shared)
	for _, oc := range h.cores {
		oc.l1.SetState(line, cache.Shared)
	}
}

// invalidateOtherL1s drops line from every L1 on the host except c's.
func (m *Machine) invalidateOtherL1s(h *host, c *coreState, line config.Addr) {
	for _, oc := range h.cores {
		if oc != c {
			oc.l1.Invalidate(line)
		}
	}
}
