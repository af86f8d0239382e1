package harness

import (
	"strings"
	"testing"

	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/workload"
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	o := QuickOptions()
	o.RecordsPerCore = 20_000 // keep unit tests snappy
	return NewSuite(o)
}

// build1 builds a one-table figure on s with the given host ladder.
func build1(t *testing.T, s *Suite, f figure, hosts ...int) Table {
	t.Helper()
	tabs, err := s.build(f, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return tabs[0]
}

func TestRunOneProducesMetrics(t *testing.T) {
	o := QuickOptions()
	wl, _ := workload.ByName("pr")
	r, _, _, err := Run(RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.PIPM, Records: 30_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecTime <= 0 || r.IPC <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.LocalHitRate <= 0 || r.Promotions == 0 || r.LinesMoved == 0 {
		t.Fatalf("PIPM produced no migration activity: %+v", r)
	}
	if r.LocalRemapHitRate <= 0 || r.GlobalRemapHitRate <= 0 {
		t.Fatalf("remap cache stats missing: %+v", r)
	}
	if r.Workload != "pr" || r.Scheme != migration.PIPM {
		t.Fatalf("labels wrong: %+v", r)
	}
}

func TestRunOneRejectsBadConfig(t *testing.T) {
	o := QuickOptions()
	o.Cfg.Hosts = 0
	wl, _ := workload.ByName("pr")
	if _, _, _, err := Run(RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.Native, Records: 100, Seed: 1}); err == nil {
		t.Fatal("Run accepted a broken config")
	}
}

func TestSpeedup(t *testing.T) {
	a := Result{ExecTime: 100}
	b := Result{ExecTime: 200}
	if Speedup(a, b) != 2 {
		t.Fatalf("Speedup = %v, want 2", Speedup(a, b))
	}
	if Speedup(Result{}, b) != 0 {
		t.Fatal("zero exec time should give 0")
	}
}

func TestEngineMemoizes(t *testing.T) {
	o := QuickOptions()
	o.RecordsPerCore = 5_000
	s := NewSuite(o)
	wl := o.Workloads[0]
	r1, err := s.run.Get(s.req(o.Cfg, wl, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.run.Get(s.req(o.Cfg, wl, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized results differ")
	}
	st := s.RunStats()
	if len(st) != 1 {
		t.Fatalf("expected 1 executed run, got %d", len(st))
	}
	if st[0].MemoHits != 1 {
		t.Fatalf("MemoHits = %d, want 1", st[0].MemoHits)
	}
	if st[0].Instructions <= 0 || st[0].SimPS <= 0 {
		t.Fatalf("stats missing throughput data: %+v", st[0])
	}
}

func TestTableFormatAndHelpers(t *testing.T) {
	tab := Table{
		Title:     "demo",
		Note:      "a note",
		Cols:      []string{"a", "b"},
		Rows:      []string{"x", "y"},
		Cells:     [][]float64{{1, 2}, {3, 4}},
		MeanLabel: "mean",
	}
	s := tab.Format()
	for _, frag := range []string{"demo", "a note", "workload", "mean", "2.00", "3.00"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Format missing %q:\n%s", frag, s)
		}
	}
	means := tab.Means()
	if means[0] != 2 || means[1] != 3 {
		t.Fatalf("Means = %v", means)
	}
	if v, ok := tab.Cell("y", "b"); !ok || v != 4 {
		t.Fatalf("Cell = %v, %v", v, ok)
	}
	if _, ok := tab.Cell("nope", "b"); ok {
		t.Fatal("Cell found a missing row")
	}
	empty := Table{Cols: []string{"a"}}
	if empty.Means()[0] != 0 {
		t.Fatal("empty table mean should be 0")
	}
}

func TestTable1And2Render(t *testing.T) {
	s := Table1()
	for _, name := range workload.Names() {
		if !strings.Contains(s, name) {
			t.Errorf("Table1 missing %s", name)
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   config.Config
		frags []string
	}{
		{"paper", config.Default(), []string{"4 hosts", "6-wide", "50.00ns", "threshold 8", "LLC            2MB/core"}},
		// The scaled sweep configurations shrink the LLC below 1 MB, which
		// must print in KB rather than as 0MB.
		{"scaled", DefaultOptions().Cfg, []string{"4 hosts, 4 cores per host", "LLC            128KB/core 16-way"}},
		{"quick", QuickOptions().Cfg, []string{"4 hosts, 1 cores per host", "LLC            128KB/core 16-way"}},
	} {
		s2 := Table2(tc.cfg)
		for _, frag := range tc.frags {
			if !strings.Contains(s2, frag) {
				t.Errorf("%s: Table2 missing %q:\n%s", tc.name, frag, s2)
			}
		}
	}
}

func TestFig10ShapeOnQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := quickSuite(t)
	tab := build1(t, s, fig10)
	if len(tab.Rows) != 3 || len(tab.Cols) != 7 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	// Local-only must dominate everything; PIPM must not lose to native
	// (cells are speedups over native).
	for r := range tab.Rows {
		localOnly := tab.Cells[r][len(tab.Cols)-1]
		for c := 0; c < len(tab.Cols)-1; c++ {
			if tab.Cells[r][c] >= localOnly {
				t.Errorf("%s: %s (%.2f) beat local-only (%.2f)",
					tab.Rows[r], tab.Cols[c], tab.Cells[r][c], localOnly)
			}
		}
		// At this tiny quick scale PIPM has little time to amortize on
		// contested workloads; it must still be near-harmless.
		if pipm, _ := tab.Cell(tab.Rows[r], "pipm"); pipm < 0.85 {
			t.Errorf("%s: pipm speedup %.2f < 0.85", tab.Rows[r], pipm)
		}
	}
}

func TestFig11And12Consistency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := quickSuite(t)
	hit := build1(t, s, fig11)
	stall := build1(t, s, fig12)
	for r := range hit.Rows {
		for c := range hit.Cols {
			if hit.Cells[r][c] < 0 || hit.Cells[r][c] > 100 {
				t.Errorf("hit rate out of range: %v", hit.Cells[r][c])
			}
			if stall.Cells[r][c] < 0 || stall.Cells[r][c] > 100 {
				t.Errorf("stall fraction out of range: %v", stall.Cells[r][c])
			}
		}
		// Native's local hit rate is identically zero.
		if v, _ := hit.Cell(hit.Rows[r], "native"); v != 0 {
			t.Errorf("native hit rate %v != 0", v)
		}
	}
}

func TestFig13FootprintShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := quickSuite(t)
	tab := build1(t, s, fig13)
	for r := range tab.Rows {
		hw, _ := tab.Cell(tab.Rows[r], "hw-static")
		if hw < 20 || hw > 30 {
			t.Errorf("%s: hw-static footprint %.1f%%, want ≈25%%", tab.Rows[r], hw)
		}
		page, _ := tab.Cell(tab.Rows[r], "pipm-page")
		line, _ := tab.Cell(tab.Rows[r], "pipm-line")
		if line > page {
			t.Errorf("%s: pipm-line (%.1f) exceeds pipm-page (%.1f)", tab.Rows[r], line, page)
		}
	}
}

func TestFig5Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := quickSuite(t)
	tab := build1(t, s, fig5)
	for r := range tab.Rows {
		for c := range tab.Cols {
			if v := tab.Cells[r][c]; v < 0 || v > 100 {
				t.Errorf("harmful%% out of range: %v", v)
			}
		}
	}
}

func TestFig16SmallCacheHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := QuickOptions()
	o.RecordsPerCore = 15_000
	o.Workloads = o.Workloads[:1]
	s := NewSuite(o)
	tab := build1(t, s, fig16)
	// Normalized performance must be ≤ ~1 and non-decreasing-ish with size.
	first := tab.Cells[0][0]
	last := tab.Cells[0][len(tab.Cols)-1]
	if last < first-0.02 {
		t.Errorf("bigger local remap cache performed worse: %.3f → %.3f", first, last)
	}
	for c := range tab.Cols {
		if tab.Cells[0][c] > 1.05 {
			t.Errorf("normalized perf %v > 1 (beats infinite cache)", tab.Cells[0][c])
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := QuickOptions()
	o.RecordsPerCore = 40_000
	o.Cfg.SharedBytes = 1 << 20   // small heap: phases span several passes
	o.Workloads = o.Workloads[:1] // pr only
	s := NewSuite(o)

	scal := build1(t, s, scalability, 2, 4)
	for c := range scal.Cols {
		if scal.Cells[0][c] <= 1 {
			t.Errorf("PIPM speedup at %s = %.2f, want > 1", scal.Cols[c], scal.Cells[0][c])
		}
	}

	th := build1(t, s, thresholdSensitivity)
	// §5.1.4: similar performance across 4..16 — within 25% of each other.
	var across []float64
	for _, col := range []string{"th=4", "th=8", "th=16"} {
		v, ok := th.Cell("pr", col)
		if !ok {
			t.Fatalf("threshold table has no %s column: %v", col, th.Cols)
		}
		across = append(across, v)
	}
	lo, hi := across[0], across[0]
	for _, v := range across {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo*1.25 {
		t.Errorf("threshold sensitivity too wide: %.2f..%.2f", lo, hi)
	}

	ad := build1(t, s, adaptivity)
	hwStatic, _ := ad.Cell("pr", "hw-static")
	pipmV, _ := ad.Cell("pr", "pipm")
	if pipmV <= hwStatic {
		t.Errorf("under rotation PIPM (%.2f) should beat HW-static (%.2f)", pipmV, hwStatic)
	}
}
