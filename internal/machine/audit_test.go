package machine

import (
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
)

// The auditor re-checks the model checker's invariants (SWMR, directory
// precision, ME consistency, L1/LLC inclusion) on the live simulator, after
// every shared access, across randomized multi-host workloads.

func TestAuditCleanAcrossSchemes(t *testing.T) {
	for _, k := range []migration.Kind{
		migration.Native, migration.PIPM, migration.HWStatic,
		migration.Memtis, migration.Nomad,
	} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			m := build(t, testCfg(), k)
			if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
				t.Fatal(err)
			}
			attachContested(m, 25000) // heaviest sharing → hardest invariants
			run(t, m)
			if errs := m.AuditViolations(); len(errs) > 0 {
				t.Fatalf("%d invariant violations; first: %s", len(errs), errs[0])
			}
		})
	}
}

func TestAuditCleanOnPartitionedPIPM(t *testing.T) {
	m := build(t, testCfg(), migration.PIPM)
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		t.Fatal(err)
	}
	attachPartitioned(m, 40000)
	run(t, m)
	if errs := m.AuditViolations(); len(errs) > 0 {
		t.Fatalf("%d invariant violations; first: %s", len(errs), errs[0])
	}
	// The run must actually have exercised ME lines for the audit to mean
	// anything.
	if m.Stats().LinesMoved == 0 {
		t.Fatal("audit ran but no lines ever migrated")
	}
}

func TestAuditCleanWithHints(t *testing.T) {
	m := build(t, testCfg(), migration.PIPM)
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if err := m.PinPage(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPageNoMigrate(1); err != nil {
		t.Fatal(err)
	}
	_ = cfg
	attachContested(m, 25000)
	run(t, m)
	if errs := m.AuditViolations(); len(errs) > 0 {
		t.Fatalf("hints broke invariants: %s", errs[0])
	}
}

func TestAuditDetectsSeededCorruption(t *testing.T) {
	// Prove the auditor can actually fail: corrupt the state mid-run by
	// force-filling the same line Modified on two hosts.
	m := build(t, testCfg(), migration.Native)
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		t.Fatal(err)
	}
	attachContested(m, 25000)
	am := m.AddressMap()
	line := am.SharedAddr(0).Line()
	m.eng.At(2*1000*1000, func() { // 2µs: early, while accesses continue
		m.hosts[0].llc.Fill(line, 3 /* Modified */)
		m.hosts[1].llc.Fill(line, 3)
		// Audit immediately: the demand stream could legitimately repair
		// or evict the corruption before its next access to this line.
		m.auditLine(line)
	})
	run(t, m)
	if len(m.AuditViolations()) == 0 {
		t.Fatal("auditor missed a seeded double-writer")
	}
}
