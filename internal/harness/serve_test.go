package harness

import (
	"fmt"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
)

// TestServeAuditedSmoke runs both production-service generators under the
// paranoid auditor at the base cluster size and at 64 hosts — the widest
// exact sharer bitmask. The llmserve KV slots concentrate writes that
// migrate between hosts; the daxfs hot lines put every host on the same CAS
// word: both are protocol shapes the Table 1 presets never produce, so every
// invariant sweep (SWMR, directory precision, remap agreement) runs against
// them. CI runs this under -race as the serve-workloads smoke.
func TestServeAuditedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("audited serve runs are too slow for -short")
	}
	o := QuickOptions()
	for _, name := range []string{"llmserve", "daxfs"} {
		wl := mustWorkload(name)
		for _, tc := range []struct {
			hosts   int
			records int64
		}{
			{o.Cfg.Hosts, 12_000},
			{64, 1500},
		} {
			tc := tc
			t.Run(fmt.Sprintf("%s-%dhosts", name, tc.hosts), func(t *testing.T) {
				t.Parallel()
				cfg := ScaleForHosts(o.Cfg, tc.hosts)
				_, _, rep, err := Run(RunRequest{Cfg: cfg, WL: wl, Scheme: migration.PIPM, Records: tc.records,
					Seed: o.Seed, Audit: audit.Options{Mode: audit.Paranoid}})
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServeComparisonDeterministicAcrossWorkers renders the full
// production-service figure on a 1-worker engine and an 8-worker engine and
// requires byte-identical tables — the engine-parallel half of the serve
// determinism guarantee (the single-run half lives in
// TestInstrumentedRunDeterminism). A reduced record budget keeps the double
// sweep affordable; determinism is budget-independent.
func TestServeComparisonDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("double serve sweep is too slow for -short")
	}
	render := func(workers int) string {
		o := QuickOptions()
		o.RecordsPerCore = 6_000
		o.Workers = workers
		s := NewSuite(o)
		tables, err := s.build(serveComparison, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var out string
		for _, tb := range tables {
			out += tb.Format() + "\n"
		}
		return out
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("serve tables differ between 1 and 8 engine workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
}

// TestServeComparisonShape checks the figure's structure: one all-scheme
// table at the base size plus one cluster-scale table per workload, with the
// expected rows and columns.
func TestServeComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("serve sweep is too slow for -short")
	}
	o := QuickOptions()
	o.RecordsPerCore = 4_000
	s := NewSuite(o)
	hosts := []int{4, 16}
	tables, err := s.build(serveComparison, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	base := tables[0]
	if len(base.Cols) != 2 || base.Cols[0] != "llmserve" || base.Cols[1] != "daxfs" {
		t.Fatalf("base table cols = %v", base.Cols)
	}
	if len(base.Rows) != len(migration.Kinds)-1 {
		t.Fatalf("base table rows = %v, want all non-Native schemes", base.Rows)
	}
	for i, tb := range tables[1:] {
		if len(tb.Cols) != len(hosts) {
			t.Fatalf("scale table %d cols = %v", i, tb.Cols)
		}
		if len(tb.Rows) != len(clusterScaleSchemes)-1 {
			t.Fatalf("scale table %d rows = %v", i, tb.Rows)
		}
		for _, row := range tb.Cells {
			for _, v := range row {
				if v <= 0 {
					t.Fatalf("scale table %d has non-positive speedup %v", i, row)
				}
			}
		}
	}
}
