package machine

import (
	"fmt"
	"strings"
	"testing"

	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/telemetry"
)

// TestHWEvictionOutcomes drives evictHWShared directly, one row per
// destination a shared LLC victim can take under the hardware family: an ME
// victim returns to its local frame (case ④), an owned M victim — and an
// owned E victim while the E-extension is on — is absorbed as incremental
// migration (case ①), and everything else leaves through the ordinary CXL
// path. An ME victim with no local remapping entry has nowhere to put its
// dirty data and panics. Host 0 owns page 0 through the majority vote in
// every row.
func TestHWEvictionOutcomes(t *testing.T) {
	const (
		page = int64(0)
		lip  = 5
	)
	// Link traffic a victim may cause: none, a background header (the
	// in-memory bit flip), or a data writeback.
	const (
		linkNone = iota
		linkHeader
		linkData
	)
	cases := []struct {
		name       string
		host       int // evicting host
		state      cache.State
		migrateOnE bool
		migrated   bool // line already migrated before the eviction

		wantLocalWB  uint64 // writes to the evicting host's local DRAM
		wantCXLWB    uint64 // writes to pooled CXL DRAM
		wantLink     int
		wantMigrated bool // migrated bit after the eviction
		wantEvent    bool // EvLineMigrate emitted
		wantPanic    bool
	}{
		{name: "ME victim", host: 0, state: cache.MigratedExclusive, migrateOnE: true, migrated: true,
			wantLocalWB: 1, wantLink: linkNone, wantMigrated: true},
		{name: "owned M absorbed", host: 0, state: cache.Modified, migrateOnE: true,
			wantLocalWB: 1, wantLink: linkHeader, wantMigrated: true, wantEvent: true},
		{name: "owned E absorbed with E-extension", host: 0, state: cache.Exclusive, migrateOnE: true,
			wantLocalWB: 1, wantLink: linkHeader, wantMigrated: true, wantEvent: true},
		{name: "owned E dropped without E-extension", host: 0, state: cache.Exclusive, migrateOnE: false,
			wantLink: linkNone},
		{name: "non-owner M written back to CXL", host: 1, state: cache.Modified, migrateOnE: true,
			wantCXLWB: 1, wantLink: linkData},
		{name: "ME victim without a local entry panics", host: 1, state: cache.MigratedExclusive, migrateOnE: true,
			wantPanic: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.PIPM.MigrateOnExclusiveEviction = tc.migrateOnE
			m := build(t, cfg, migration.PIPM)
			if err := m.EnableTelemetry(telemetry.Options{Trace: true}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.PIPM.MigrationThreshold; i++ {
				m.mgr.DeviceAccess(0, page)
			}
			if m.mgr.Owner(page) != 0 {
				t.Fatalf("page owner %d after the vote, want 0", m.mgr.Owner(page))
			}
			if tc.migrated && !m.mgr.MigrateLine(0, page, lip) {
				t.Fatal("could not pre-migrate the line")
			}

			addr := m.amap.SharedAddr(config.Addr(page)*config.PageBytes + lip*config.LineBytes)
			line := addr.Line()
			if tc.state != cache.MigratedExclusive {
				// A CXL-backed M/E copy is tracked by the device directory.
				m.devDir.Update(line, coherence.Entry{State: coherence.DirModified, Owner: int16(tc.host)})
			}
			h := m.hosts[tc.host]
			localW, cxlW := h.dram.Stats().Writes, m.cxlMem.Stats().Writes
			link := m.fabric.TotalBytes()

			if tc.wantPanic {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "page 0 at host 1") {
						t.Errorf("evictHWShared panicked with %v, want a panic naming page 0 and host 1", r)
					}
				}()
			}
			m.evictHWShared(h, 0, page, addr, line, tc.state)
			if tc.wantPanic {
				return
			}

			if got := h.dram.Stats().Writes - localW; got != tc.wantLocalWB {
				t.Errorf("local DRAM writes %d, want %d", got, tc.wantLocalWB)
			}
			if got := m.cxlMem.Stats().Writes - cxlW; got != tc.wantCXLWB {
				t.Errorf("CXL DRAM writes %d, want %d", got, tc.wantCXLWB)
			}
			switch moved := m.fabric.TotalBytes() - link; {
			case tc.wantLink == linkNone && moved != 0,
				tc.wantLink == linkHeader && (moved == 0 || moved >= cxlDataBytes),
				tc.wantLink == linkData && moved < cxlDataBytes:
				t.Errorf("link bytes %d, want class %d", moved, tc.wantLink)
			}
			if got := m.mgr.LineMigrated(0, page, lip); got != tc.wantMigrated {
				t.Errorf("migrated bit %v, want %v", got, tc.wantMigrated)
			}
			if _, ok := m.devDir.Peek(line); ok {
				t.Error("device directory still tracks the evicted line")
			}
			gotEvent := false
			for _, e := range m.trc.Events() {
				if e.Kind == telemetry.EvLineMigrate && e.Host == 0 && e.Page == page && e.Arg == lip {
					gotEvent = true
				}
			}
			if gotEvent != tc.wantEvent {
				t.Errorf("EvLineMigrate emitted %v, want %v", gotEvent, tc.wantEvent)
			}
		})
	}
}
