package machine

import (
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	pipmcore "pipm/internal/core"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
)

// Hardware-family route module (PIPM, HW-static): the I/I' resolution on
// LLC misses, the device-side global remapping lookup and majority vote,
// forwarded inter-host fetches with migrate-back, incremental migration on
// eviction, and revocation pricing. Every decision reads and updates the
// family's own state, the remapping manager m.mgr.

func (m *Machine) bindHardwareRoutes() {
	m.routeShared = m.cacheableSharedAt // hardware diverges only at the LLC miss
	m.missShared = m.missHWShared
	m.evictShared = m.evictHWShared
	m.auditShared = true
}

// missHWShared routes a memory-visible shared access through §4.3's I vs I'
// resolution: one local remapping lookup (every shared LLC miss pays it),
// then either the local migrated frame (I' → ME) or the device flow.
func (m *Machine) missHWShared(tL sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	h := c.host
	entry, cacheHit := m.mgr.LocalLookup(h.id, page)
	local := false
	if entry != nil {
		m.mgr.OwnerAccess(h.id, page)
		local = entry.Bitmap&(1<<uint(rec.Addr.LineInPage())) != 0
	}
	tR := tL + m.cfg.PIPM.LocalRemapLatency
	if !cacheHit {
		// Walk the in-memory two-level table: one leaf read from local
		// DRAM (the pinned root is free, §4.4).
		tR = h.dram.Access(tR, m.remapTableAddr(h.id, page), false)
	}
	if local {
		// I' → ME (case ③): served from local DRAM, no CXL traffic.
		return m.localSharedFill(tR, c, rec, m.localMigratedAddr(h.id, int64(entry.PFN), rec.Addr), cache.MigratedExclusive)
	}
	return m.pipmDeviceAccess(tR, c, rec, page)
}

// evictHWShared picks a shared LLC victim's destination: ME victims return
// to their local frame, owned M (and, with the E-extension, E) victims are
// absorbed as incremental migration (case ①), everything else is an
// ordinary CXL writeback.
func (m *Machine) evictHWShared(h *host, now sim.Time, page int64, addr, line config.Addr, vState cache.State) {
	lip := int(line) & (config.LinesPerPage - 1)
	switch {
	case vState == cache.MigratedExclusive:
		// ME eviction (case ④): dirty data returns to local DRAM only.
		entry, _ := m.mgr.LocalLookup(h.id, page)
		if entry == nil {
			// ME victim whose remapping vanished underneath it: nowhere to go.
			return
		}
		if m.vals != nil {
			m.vals.wbToLocal(h.id, line)
		}
		h.dram.Access(now, m.localMigratedAddr(h.id, int64(entry.PFN), addr), true)
		return
	case m.mgr.Owner(page) == h.id &&
		(vState == cache.Modified || (vState == cache.Exclusive && m.cfg.PIPM.MigrateOnExclusiveEviction)):
		// Incremental migration: write the block to the owner's local frame
		// and flip the in-memory bits instead of writing back to CXL.
		entry, _ := m.mgr.LocalLookup(h.id, page)
		if entry == nil || !m.mgr.MigrateLine(h.id, page, lip) {
			break
		}
		if m.vals != nil {
			m.vals.wbToLocal(h.id, line)
		}
		m.trc.Emit(now, 0, telemetry.EvLineMigrate, h.id, page, int64(lip))
		m.noteAuditTransition()
		h.dram.Access(now, m.localMigratedAddr(h.id, int64(entry.PFN), addr), true)
		// The CXL-side in-memory bit flips too, but it lives in ECC spare
		// bits and piggybacks on subsequent accesses (§4.3.2 footnote) — a
		// background header is the only traffic.
		m.fabric.HostToDeviceBG(now, h.id, 0)
		m.devDir.Remove(line)
		return
	}
	m.evictSharedCXL(h, now, page, addr, line, vState)
}

// pipmDeviceAccess is the device-side flow: the global remapping lookup,
// the majority vote, and — when the line is migrated to another host — the
// forwarded inter-host fetch with incremental migration back to CXL (cases
// ②⑤⑥ of Fig. 9).
func (m *Machine) pipmDeviceAccess(t sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	h := c.host
	st := m.col.Host(h.id)

	out := m.mgr.DeviceAccess(h.id, page)
	// The global remapping lookup happens on the device, in parallel with
	// the directory lookup; a cache miss adds an in-memory table read.
	extra := m.cfg.PIPM.GlobalRemapLatency
	if !out.GCacheHit {
		extra += m.cxlAccessTime(t, m.remapGlobalAddr(page))
	}

	if out.Promoted {
		m.trc.Emit(t, 0, telemetry.EvPromote, out.Owner, page, int64(h.id))
		m.noteAuditTransition()
	}
	if out.Revoked {
		m.applyRevocation(t, page, out)
	}

	if g := out.Owner; g != pipmcore.NoHost && g != h.id && m.mgr.LineMigrated(g, page, rec.Addr.LineInPage()) {
		// The line's latest copy lives in host g's local DRAM (I'/ME).
		done := m.forwardedFetch(t+extra, c, rec, page, g)
		st.Served[stats.ClassInterHost]++
		return done, stats.ClassInterHost
	}

	return m.cxlServe(t+extra, c, rec)
}

// forwardedFetch prices the inter-host path to a migrated line: requester →
// device → owner (local remap + DRAM or cache) → device → requester, with
// the line demoted back to CXL memory and an asynchronous writeback.
func (m *Machine) forwardedFetch(t sim.Time, c *coreState, rec trace.Record, page int64, g int) sim.Time {
	h := c.host
	line := rec.Addr.Line()
	owner := m.hosts[g]

	lat := (m.fabric.HostToDevice(t, h.id, 0) - t) +
		(m.fabric.DirLookup(t, line) - t) +
		(m.fabric.DeviceToHost(t, g, 0) - t)

	// Owner side: if the block is cached (ME), it comes from the LLC and
	// the copy downgrades (⑥ Inter-Rd: ME→S) or invalidates (⑤ Inter-Wr);
	// otherwise (I') it is read from local DRAM with a remap-table lookup.
	ownSt, ownCached := owner.llc.Peek(line)
	if m.vals != nil {
		m.vals.forwardServe(c, line, rec.Write, ownCached && ownSt == cache.MigratedExclusive, g)
	}
	if ownCached && ownSt == cache.MigratedExclusive {
		lat += m.llcLat
		if rec.Write {
			m.invalidateLineEverywhere(owner, line)
		} else {
			owner.llc.SetState(line, cache.Shared)
			for _, oc := range owner.cores {
				oc.l1.SetState(line, cache.Shared)
			}
		}
	} else {
		lat += m.cfg.PIPM.LocalRemapLatency
		entry, _ := m.mgr.LocalLookup(g, page)
		if entry != nil {
			lat += owner.dram.Access(t, m.localMigratedAddr(g, int64(entry.PFN), rec.Addr), false) - t
		} else {
			lat += owner.dram.Access(t, rec.Addr, false) - t
		}
	}

	// Migrate back: clear the bit, asynchronously write the block to CXL
	// memory, and let the device directory track the requester's copy.
	m.mgr.DemoteLine(g, page, rec.Addr.LineInPage())
	m.trc.Emit(t, 0, telemetry.EvLineDemote, g, page, int64(rec.Addr.LineInPage()))
	m.noteAuditTransition()
	lat += m.fabric.HostToDevice(t, g, cxlDataBytes) - t
	m.cxlMem.Access(t, rec.Addr, true) // async in-memory update

	if rec.Write {
		m.installDirEntry(line, coherence.Entry{State: coherence.DirModified, Owner: int16(h.id)})
		m.fillLLC(c, line, cache.Modified)
		m.fillL1(c, line, cache.Modified)
	} else {
		sharers := coherence.NewSharerSet(m.shShift).With(h.id)
		if _, cached := owner.llc.Peek(line); cached {
			sharers = sharers.With(g)
		}
		m.installDirEntry(line, coherence.Entry{State: coherence.DirShared, Sharers: sharers})
		m.fillLLC(c, line, cache.Shared)
		m.fillL1(c, line, cache.Shared)
	}
	done := t + lat + (m.fabric.DeviceToHost(t, h.id, cxlDataBytes) - t)
	m.trc.Emit(t, done-t, telemetry.EvInterFetch, h.id, page, int64(g))
	return done
}

// applyRevocation prices a partial-migration revocation (§4.2 ⑥): every
// migrated block of the page moves from the old owner's local DRAM back to
// its original CXL location, and the owner's cached ME blocks drop.
func (m *Machine) applyRevocation(t sim.Time, page int64, out pipmcore.Outcome) {
	g := out.RevokedFrom
	owner := m.hosts[g]
	base := m.amap.SharedAddr(config.Addr(page) * config.PageBytes)
	if m.vals != nil {
		m.vals.revoke(page, g, out.RevokedBitmap)
	}
	m.trc.Emit(t, 0, telemetry.EvRevoke, g, page, int64(out.RevokedLines))
	m.noteAuditTransition()
	// Dropped cache lines leave the device directory too; dirty copies —
	// CXL-backed M and cached ME alike — write back to CXL memory: the
	// page's remapping is gone, so local DRAM can no longer hold them.
	owner.llc.InvalidatePage(base.Page(), func(l config.Addr, st cache.State) {
		if st.Dirty() {
			wb := m.fabric.HostToDeviceBG(t, g, cxlDataBytes)
			m.cxlMem.Access(wb, l<<config.LineShift, true)
		}
		m.devDir.RemoveSharer(l, g)
	})
	for _, oc := range owner.cores {
		oc.l1.InvalidatePage(base.Page(), nil)
	}
	if out.RevokedLines == 0 {
		return
	}
	bytes := out.RevokedLines * config.LineBytes
	tt := owner.dram.AccessBulk(t, base, bytes, false)
	tt = m.fabric.HostToDeviceBG(tt, g, bytes)
	m.cxlMem.AccessBulk(tt, base, bytes, true)
	m.col.BytesMoved += uint64(bytes)
}

// localMigratedAddr maps a migrated block to an address in the owner's
// local DRAM window, derived from the allocated local PFN so bank mapping
// behaves like real placement.
func (m *Machine) localMigratedAddr(h int, pfn int64, addr config.Addr) config.Addr {
	off := (config.Addr(pfn)*config.PageBytes + config.Addr(addr)&(config.PageBytes-1)) %
		config.Addr(m.cfg.LocalDRAM.CapacityBytes)
	return m.amap.PrivateAddr(h, off)
}

// remapTableAddr locates a page's local remapping leaf entry in the owner's
// local DRAM for table-walk pricing.
func (m *Machine) remapTableAddr(h int, page int64) config.Addr {
	off := config.Addr(page*4) % config.Addr(m.cfg.LocalDRAM.CapacityBytes)
	return m.amap.PrivateAddr(h, off)
}

// remapGlobalAddr locates a page's global remapping entry in CXL memory.
// The entry stride follows the host count: the paper's packed 2 bytes up to
// 32 hosts, 3 bytes beyond (config.GlobalRemapEntrySize).
func (m *Machine) remapGlobalAddr(page int64) config.Addr {
	return m.amap.SharedAddr(config.Addr(page) * m.gEntryBytes % m.amap.SharedBytes())
}

// cxlAccessTime prices a single metadata access to CXL DRAM from the
// device side (no link traversal: the global remapping cache and table both
// live on the memory node), measured from the walk's current time t.
func (m *Machine) cxlAccessTime(t sim.Time, addr config.Addr) sim.Time {
	return m.cxlMem.Access(t, addr, false) - t
}
