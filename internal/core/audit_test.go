package core_test

import (
	"testing"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/core"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/trace"
)

// onRecord is a trace reader that calls fn once, as it yields record at.
type onRecord struct {
	trace.Reader
	at, n int
	fn    func()
}

func (r *onRecord) Next() (trace.Record, bool) {
	if r.n++; r.n == r.at {
		r.fn()
	}
	return r.Reader.Next()
}

// TestAuditDetectsOwnerTagCorruption moves one page's owner tag in the
// shared local store to another host mid-run, with nothing else changed:
// the global table still names the old owner, whose local table has lost
// the entry, and the auditor's remap-table check must report it.
func TestAuditDetectsOwnerTagCorruption(t *testing.T) {
	cfg := config.Default()
	cfg.Hosts = 2
	cfg.CoresPerHost = 1
	cfg.L1D = config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, Latency: sim.Nanosecond}
	cfg.LLC = config.CacheConfig{SizeBytes: 16 << 10, Ways: 8, Latency: 6 * sim.Nanosecond}
	cfg.SharedBytes = 64 << 10
	m, err := machine.New(cfg, migration.HWStatic) // page p starts at host p%2
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableAuditor(audit.Options{Mode: audit.Quantum}); err != nil {
		t.Fatal(err)
	}
	const victim = 9 // held by host 1; the traces never touch it
	am := m.AddressMap()
	for h := 0; h < cfg.Hosts; h++ {
		recs := make([]trace.Record, 4000)
		for i := range recs {
			recs[i] = trace.Record{Gap: 8, Addr: am.SharedAddr(config.Addr(i%256) * config.LineBytes), Write: i%4 == 0}
		}
		var r trace.Reader = trace.NewSliceReader(recs)
		if h == 0 {
			r = &onRecord{Reader: r, at: 2000, fn: func() { core.SetOwnerTag(m.Manager(), victim, 0) }}
		}
		m.SetTrace(h, 0, r)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range m.AuditReport().Violations {
		if v.Invariant == audit.InvRemapAgree {
			return
		}
	}
	t.Fatalf("auditor missed the moved owner tag; violations: %v", m.AuditViolations())
}
