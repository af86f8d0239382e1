package machine

import (
	"fmt"

	"pipm/internal/audit"
	"pipm/internal/cache"
	"pipm/internal/config"
	pipmcore "pipm/internal/core"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
)

// The runtime invariant auditor (DESIGN.md §12) checks — on live simulator
// state — the same invariants the model checker proves on the abstract
// protocol (SWMR, directory precision, ME/I' consistency) plus the global
// properties only a whole-state walk can see (conservation, remap-table
// agreement, footprint accounting). The model checker covers the protocol as
// specified, the golden digests pin observed behaviour, and the auditor
// covers the walk as implemented: three independent guards.
//
// The auditor is observation-only: every probe goes through Peek/ForEach
// accessors that never touch LRU state or statistics, so Result digests are
// bit-identical with auditing on or off (TestGoldenQuickSweepAudited). Off,
// it costs one nil/bool check per access (BenchmarkAuditorDisabledOverhead).

// auditTrailRing is the private event-ring capacity the auditor creates when
// trace telemetry is not enabled, so violations still carry a protocol trail.
const auditTrailRing = 256

// EnableAuditor attaches a runtime invariant auditor. Call after New and
// before Run; zero-mode options are a no-op. In Quantum mode the whole
// machine state is swept every Interval quanta; Paranoid mode additionally
// checks the touched line after every shared access and sweeps after every
// protocol transition (promotion, revocation, line migration, epoch
// migration). Check AuditReport after Run.
func (m *Machine) EnableAuditor(o audit.Options) error {
	if m.ran {
		return fmt.Errorf("machine: EnableAuditor after Run")
	}
	if !o.Enabled() {
		return nil
	}
	if m.aud != nil {
		return fmt.Errorf("machine: auditor already enabled")
	}
	m.aud = audit.New(o)
	m.auditEvery = m.quantum * sim.Time(m.aud.Options().Interval)
	if o.Mode == audit.Paranoid {
		m.audit = true
		m.auditParanoid = true
	}
	if m.trc == nil {
		// Violations report a bounded protocol-event trail; when trace
		// telemetry is off the auditor brings its own ring. TelemetryOutput
		// must keep returning nil in that case (see telemetry.go).
		m.trc = telemetry.NewTrace(auditTrailRing)
		m.auditOwnsTrc = true
	}
	m.auditTickFn = m.auditTick
	m.audScratch.init(m)
	return nil
}

// AuditViolations returns the invariant violations observed as strings (nil
// when the auditor was off or everything held).
func (m *Machine) AuditViolations() []string {
	if m.aud == nil {
		return nil
	}
	var out []string
	for _, v := range m.aud.Report().Violations {
		out = append(out, fmt.Sprintf("%s: %s", v.Invariant, v.Detail))
	}
	return out
}

// AuditReport returns the auditor's findings (zero Report when disabled).
// Valid after Run; Report.Err() is the run-failing signal.
func (m *Machine) AuditReport() audit.Report {
	if m.aud == nil {
		return audit.Report{}
	}
	return m.aud.Report()
}

// noteAuditTransition marks that a protocol transition happened; in paranoid
// mode the machine sweeps at the next consistent point (after the access
// returns — mid-access state is legitimately inconsistent, e.g. a directory
// entry installed before its fill).
func (m *Machine) noteAuditTransition() {
	if m.auditParanoid {
		m.auditPending = true
	}
}

// auditTick is the per-quantum sweep, driven by the sim event heap like the
// footprint sampler; it re-arms until the last core finishes.
func (m *Machine) auditTick() {
	if m.liveCores == 0 {
		return
	}
	m.auditSweep(true)
	m.eng.At(m.eng.Now()+m.auditEvery, m.auditTickFn)
}

// auditLine checks the cross-host state of one shared line after a shared
// access (the paranoid per-access check). It gathers the line's facts
// through Peek and applies the sweep's CheckLine rules to them.
func (m *Machine) auditLine(line config.Addr) {
	if m.aud == nil {
		return
	}
	f := audit.LineFacts{Line: line, ExclHost: -1}
	for _, hs := range m.hosts {
		st, ok := hs.llc.Peek(line)
		if !ok {
			for _, c := range hs.cores {
				if _, l1ok := c.l1.Peek(line); l1ok {
					f.L1StrayMask.Add(hs.id)
				}
			}
			continue
		}
		f.HolderMask.Add(hs.id)
		if st == cache.Shared {
			f.SharedMask.Add(hs.id)
		} else {
			f.ExclCount++
			f.ExclHost = hs.id
			f.ExclState = st
		}
	}
	f.Dir, f.HasDir = m.devDir.Peek(line)
	m.ownerFacts(&f, int64(line-m.audScratch.baseLine))
	m.aud.CheckLine(m.eng.Now(), m.trc, m.family, &f)
}

// ownerFacts fills f's family ownership fields for the shared line at index
// idx: the hardware family's page owner and migrated bit, and the kernel
// family's page-table owner.
func (m *Machine) ownerFacts(f *audit.LineFacts, idx int64) {
	page := idx >> config.PageLineShift
	f.MigOwner, f.PageOwner = -1, -1
	if m.mgr != nil {
		if owner := m.mgr.Owner(page); owner != pipmcore.NoHost {
			f.MigOwner = owner
			f.Migrated = m.mgr.LineMigrated(owner, page, int(idx)&(config.LinesPerPage-1))
		}
	}
	if m.pt != nil {
		if o := m.pt.Owner(page); o != migration.ToCXL {
			f.PageOwner = o
		}
	}
}
