package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
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

// TestAuditLineMatchesSweep seeds one corruption per row into a fresh
// machine and requires the per-access line check to report, string for
// string, what the whole-state sweep reports for that line: both must apply
// the same per-line rules.
func TestAuditLineMatchesSweep(t *testing.T) {
	const (
		page = int64(0)
		lip  = 5
	)
	cases := []struct {
		name string
		kind migration.Kind
		seed func(m *Machine, line config.Addr)
	}{
		{"double M writer", migration.Native, func(m *Machine, line config.Addr) {
			m.hosts[0].llc.Fill(line, cache.Modified)
			m.hosts[1].llc.Fill(line, cache.Modified)
			m.devDir.Update(line, coherence.Entry{State: coherence.DirModified, Owner: 1})
		}},
		{"cached line without its directory entry", migration.Native, func(m *Machine, line config.Addr) {
			m.hosts[0].llc.Fill(line, cache.Shared)
			m.devDir.Update(line, coherence.Entry{State: coherence.DirShared, Sharers: coherence.NewSharerSet(m.shShift).With(0)})
			m.devDir.Remove(line)
		}},
		{"ME copy with its migrated bit cleared", migration.PIPM, func(m *Machine, line config.Addr) {
			for i := 0; i < m.cfg.PIPM.MigrationThreshold; i++ {
				m.mgr.DeviceAccess(0, page)
			}
			if !m.mgr.MigrateLine(0, page, lip) {
				t.Fatal("could not migrate the line")
			}
			m.hosts[0].llc.Fill(line, cache.MigratedExclusive)
			m.mgr.DemoteLine(0, page, lip)
		}},
		{"kernel page cached at another host", migration.Memtis, func(m *Machine, line config.Addr) {
			m.pt.Set(page, 0)
			m.hosts[1].llc.Fill(line, cache.Shared)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := build(t, testCfg(), tc.kind)
			if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
				t.Fatal(err)
			}
			line := m.amap.SharedAddr(config.Addr(page)*config.PageBytes + lip*config.LineBytes).Line()
			tc.seed(m, line)

			m.auditLine(line)
			perLine := m.AuditViolations()
			if len(perLine) == 0 {
				t.Fatal("per-line check missed the seeded corruption")
			}
			m.auditSweep(false)
			var sweep []string
			for _, v := range m.AuditViolations()[len(perLine):] {
				if strings.Contains(v, fmt.Sprintf("line %#x ", uint64(line))) {
					sweep = append(sweep, v)
				}
			}
			if !reflect.DeepEqual(perLine, sweep) {
				t.Fatalf("per-line check and sweep disagree on line %#x:\nper-line: %q\nsweep:    %q", uint64(line), perLine, sweep)
			}
		})
	}
}
