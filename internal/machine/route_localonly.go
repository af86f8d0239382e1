package machine

import (
	"pipm/internal/cache"
	"pipm/internal/config"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/trace"
)

// Local-only route module: the upper bound where every host's view of
// shared data is private by construction. Shared accesses take the private
// L1 → LLC → local-DRAM path (reclassified as shared serves), evictions
// write back locally, and no cross-host sharing semantics exist — so the
// coherence audit is disabled and no placement decision is ever taken.

func (m *Machine) bindLocalOnlyRoutes() {
	m.routeShared = m.routeLocalOnlyShared
	m.missShared = m.missSharedCXL // unreachable: the route never walks the shared hierarchy
	m.evictShared = m.evictLocalOnlyShared
	m.auditShared = false
}

// routeLocalOnlyShared serves shared data as if it were local DRAM.
func (m *Machine) routeLocalOnlyShared(t sim.Time, c *coreState, rec trace.Record, page int64) (sim.Time, stats.Class) {
	done, class := m.privateAccess(t, c, rec)
	if class == stats.ClassLocalPrivate {
		class = stats.ClassLocalShared
	}
	m.col.Host(c.host.id).Served[class]++
	return done, class
}

// evictLocalOnlyShared: "shared" victims are backed by local DRAM too.
func (m *Machine) evictLocalOnlyShared(h *host, now sim.Time, page int64, addr, line config.Addr, vState cache.State) {
	m.evictLocalWB(h, now, addr, line, vState)
}
