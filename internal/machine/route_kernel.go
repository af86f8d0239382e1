package machine

import (
	"pipm/internal/cache"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
)

// Kernel-family route module (Nomad, Memtis, HeMem, OS-skew): whole-page
// migration at epoch boundaries, local serves for resident pages, and the
// non-cacheable 4-hop GIM path to pages another host holds. Per-access
// placement reads the whole-page table (m.pt) and feeds the epoch policy and
// the harmful-migration ledger; the epoch tick below runs the policy.

func (m *Machine) bindKernelRoutes() {
	m.routeShared = m.routeKernelShared
	m.missShared = m.missKernelShared
	m.evictShared = m.evictKernelShared
	m.auditShared = true
}

// routeKernelShared feeds the policy's access stream (PEBS samples and
// NUMA-hinting faults see loads regardless of cache state), then routes:
// pages migrated to another host bypass the caches entirely.
func (m *Machine) routeKernelShared(t sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	h := c.host.id
	m.policy.RecordAccess(h, page, rec.Write)
	if owner := m.pt.Owner(page); owner != migration.ToCXL && owner != h {
		// The page's unified PA points into another host's GIM window:
		// non-cacheable 4-hop access (Fig. 3 ①–⑤). It is memory-visible by
		// definition, so the ledger scores it before the traversal.
		m.ledger.OnAccess(page, h)
		return m.gimRemoteAccess(t, c, rec, owner)
	}
	return m.cacheableSharedAt(t, c, rec, page)
}

// missKernelShared serves a memory-visible access: local DRAM when the page
// is resident here, the coherent CXL path otherwise. The ledger scores
// every such access (owner-side benefit is cache-filtered, so this is the
// granularity it wants).
func (m *Machine) missKernelShared(tL sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	h := c.host.id
	m.ledger.OnAccess(page, h)
	if m.pt.Owner(page) == h {
		fillSt := cache.Exclusive
		if rec.Write {
			fillSt = cache.Modified
		}
		return m.localSharedFill(tL, c, rec, rec.Addr, fillSt)
	}
	return m.cxlServe(tL, c, rec)
}

// evictKernelShared writes victims of locally-resident pages to local DRAM;
// everything else is an ordinary CXL writeback.
func (m *Machine) evictKernelShared(h *host, now sim.Time, page int64, addr, line config.Addr, vState cache.State) {
	if m.pt.Owner(page) == h.id {
		m.evictLocalWB(h, now, addr, line, vState)
		return
	}
	m.evictSharedCXL(h, now, page, addr, line, vState)
}

// gimRemoteAccess is the non-cacheable 4-hop path to a page migrated into
// another host's local memory under a kernel scheme (Fig. 3 ①–⑤): no
// caching at the requester, every reference pays the full traversal.
func (m *Machine) gimRemoteAccess(t sim.Time, c *coreState, rec trace.Record, g int) (sim.Time, stats.Class) {
	h := c.host
	line := rec.Addr.Line()
	owner := m.hosts[g]

	reqBytes, respBytes := 0, cxlDataBytes
	if rec.Write {
		reqBytes, respBytes = cxlDataBytes, 0
	}
	lat := (m.fabric.HostToDevice(t, h.id, reqBytes) - t) +
		(m.fabric.DeviceToHost(t, g, reqBytes) - t) + m.llcLat

	// Owning host's local coherence directory (Fig. 3 ③): the LLC may hold
	// the freshest copy.
	_, ownerCached := owner.llc.Peek(line)
	if m.vals != nil {
		m.vals.gimServe(c, line, rec.Write, g, ownerCached)
	}
	if ownerCached {
		if rec.Write {
			m.invalidateLineEverywhere(owner, line)
			owner.dram.Access(t, rec.Addr, true) // async local update
		}
	} else {
		lat += owner.dram.Access(t, rec.Addr, rec.Write) - t
	}

	lat += (m.fabric.HostToDevice(t, g, respBytes) - t) +
		(m.fabric.DeviceToHost(t, h.id, respBytes) - t)
	m.col.Host(h.id).Served[stats.ClassInterHost]++
	return t + lat, stats.ClassInterHost
}

// kernelTick is the epoch boundary of kernel-based schemes: run the policy,
// price the management and transfer work, and apply the page moves.
func (m *Machine) kernelTick() {
	if m.liveCores == 0 {
		return
	}
	now := m.eng.Now()
	budget := int(float64(m.cfg.SharedPages()) * m.cfg.Kernel.MaxLocalFrac)
	if budget < 1 {
		budget = 1
	}
	ops := m.policy.Tick(m.pt, budget)
	if max := m.cfg.Kernel.MaxPagesPerEpoch; max > 0 && len(ops) > max {
		ops = ops[:max]
	}

	if len(ops) > 0 {
		costs := m.tlbModel.ForPages(len(ops))
		// Batched TLB shootdowns stall every core in the system.
		for _, hs := range m.hosts {
			for _, c := range hs.cores {
				c.pendingMgmt += costs.Remote
			}
		}
		m.trc.Emit(now, costs.Remote, telemetry.EvShootdown, telemetry.DeviceHost,
			int64(len(ops)), 0)
		for _, op := range ops {
			m.applyKernelOp(now, op)
		}
		if m.auditParanoid {
			// Epoch migrations are protocol transitions; the tick's end is
			// the consistent point to sweep at.
			m.auditSweep(false)
		}
	}
	m.eng.At(now+m.cfg.Kernel.Interval, m.kernelTickFn)
}

func (m *Machine) applyKernelOp(now sim.Time, op migration.Op) {
	from := m.pt.Owner(op.Page)
	if from == op.To {
		return
	}
	base := m.amap.SharedAddr(config.Addr(op.Page) * config.PageBytes)
	if m.vals != nil {
		// Values move with the page; must precede the invalidations below so
		// dirty cached copies can still be folded in.
		m.vals.kernelMove(op.Page, from, op.To)
	}

	// All hosts drop cached lines of the page: its unified PA changes
	// (kernelTick prices the shootdown of its translations). Dirty data is
	// folded into the page copy below.
	firstLine := base.Line()
	for _, hs := range m.hosts {
		hs.llc.InvalidatePage(base.Page(), nil)
		for _, c := range hs.cores {
			c.l1.InvalidatePage(base.Page(), nil)
		}
	}
	for l := config.Addr(0); l < config.LinesPerPage; l++ {
		m.devDir.Remove(firstLine + l)
	}

	// Price the data transfer (asynchronous: occupies DRAM and link
	// bandwidth, contending with demand traffic, but stalls no core by
	// itself).
	initiator := op.To
	if initiator == migration.ToCXL {
		initiator = from
	}
	if op.To != migration.ToCXL {
		// CXL → local: pooled read, link down to the new owner, local write.
		t := m.cxlMem.AccessBulk(now, base, config.PageBytes, false)
		t = m.fabric.DeviceToHostBG(t, op.To, config.PageBytes)
		done := m.hosts[op.To].dram.AccessBulk(t, base, config.PageBytes, true)
		m.col.Promotions++
		m.ledger.OnMigration(op.Page, op.To)
		m.trc.Emit(now, done-now, telemetry.EvPromote, op.To, op.Page, int64(from))
	} else {
		// Local → CXL: local read, link up, pooled write.
		t := m.hosts[from].dram.AccessBulk(now, base, config.PageBytes, false)
		t = m.fabric.HostToDeviceBG(t, from, config.PageBytes)
		done := m.cxlMem.AccessBulk(t, base, config.PageBytes, true)
		m.col.Demotions++
		m.ledger.OnDemotion(op.Page)
		m.trc.Emit(now, done-now, telemetry.EvDemote, from, op.Page, 0)
	}
	m.col.BytesMoved += config.PageBytes

	// The initiating host additionally does the per-page kernel work
	// (unmap, copy management, remap): a synchronous stall, spread across
	// the host's cores (the paper applies multi-threaded, batched page
	// transfers) — except when the scheme's transactional migration runs
	// it asynchronously (Nomad).
	if !m.asyncKernelTransfer {
		cores := m.hosts[initiator].cores
		core := cores[int(m.col.Promotions+m.col.Demotions)%len(cores)]
		core.pendingTransfer += m.tlbModel.InitiatorPerPage()
	}

	m.pt.Set(op.Page, op.To)
}
