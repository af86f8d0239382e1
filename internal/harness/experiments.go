package harness

import (
	"fmt"
	"io"
	"strings"

	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// Suite runs the paper's experiments over one Options. All simulations flow
// through a run-graph engine that deduplicates by canonical RunKey and
// executes on a bounded worker pool, so figures share runs (the Fig 10–13
// sweep, every figure's Native baseline, Fig 4's base-interval points, the
// sensitivity studies' default-parameter points) and independent runs
// proceed in parallel. Each figure first enumerates every run it needs,
// prefetches the set, then assembles its table from the memo in
// presentation order — rendered output is byte-identical for any worker
// count.
type Suite struct {
	opt Options
	eng *engine
}

// NewSuite builds a suite.
func NewSuite(opt Options) *Suite {
	return &Suite{opt: opt, eng: newEngine(opt.Workers, opt.Progress, opt.Store, opt.OnRunDone)}
}

// Options returns the suite's options.
func (s *Suite) Options() Options { return s.opt }

// RunStats returns the observability record of every simulation executed so
// far — wall clock, simulated time, instruction throughput and memo hits —
// sorted by (workload, scheme, key).
func (s *Suite) RunStats() []RunStats { return s.eng.statsSnapshot() }

// StoreStats reports the persistent result store's traffic for this suite;
// ok is false when Options.Store was nil.
func (s *Suite) StoreStats() (StoreStats, bool) { return s.eng.storeStatsSnapshot() }

// Telemetry returns the collected telemetry of every completed run, sorted
// by (workload, scheme, key). Empty unless Options.Telemetry was enabled.
func (s *Suite) Telemetry() []RunTelemetry { return s.eng.telemetrySnapshot() }

// labeledTelemetry maps the engine snapshot to the export layer's labeled
// form ("workload/scheme" labels plus the canonical key).
func (s *Suite) labeledTelemetry() []telemetry.LabeledOutput {
	runs := s.Telemetry()
	out := make([]telemetry.LabeledOutput, len(runs))
	for i, r := range runs {
		out[i] = telemetry.LabeledOutput{
			Label:  r.Workload + "/" + r.Scheme,
			Key:    r.Key.String(),
			Output: r.Output,
		}
	}
	return out
}

// WriteTimeSeries emits every collected run's time-series as JSON.
func (s *Suite) WriteTimeSeries(w io.Writer) error {
	return telemetry.WriteTimeSeries(w, s.labeledTelemetry())
}

// WriteTimeSeriesCSV emits the same series in long-form CSV.
func (s *Suite) WriteTimeSeriesCSV(w io.Writer) error {
	return telemetry.WriteTimeSeriesCSV(w, s.labeledTelemetry())
}

// WriteTrace emits every collected run's event trace as one Chrome
// trace-event JSON document (one process per run, one thread per host).
func (s *Suite) WriteTrace(w io.Writer) error {
	return telemetry.WriteChromeTrace(w, s.labeledTelemetry())
}

// req names one run at the suite's record budget, seed and telemetry config.
func (s *Suite) req(cfg config.Config, wl workload.Params, k migration.Kind) RunRequest {
	return RunRequest{Cfg: cfg, WL: wl, Scheme: k, Records: s.opt.RecordsPerCore,
		Seed: s.opt.Seed, Telemetry: s.opt.Telemetry, Audit: s.opt.Audit}
}

// get fetches one run through the engine's memo.
func (s *Suite) get(cfg config.Config, wl workload.Params, k migration.Kind) (Result, error) {
	return s.eng.get(s.req(cfg, wl, k))
}

// prefetch executes the request set on the worker pool before assembly.
func (s *Suite) prefetch(reqs []RunRequest) error { return s.eng.runAll(reqs) }

// fig10Schemes is the presentation order of the end-to-end comparison:
// every registered scheme except the native baseline (the normalisation
// denominator), in registry order. A ninth scheme added to the registry
// appears here — and in every metricTable figure — automatically.
var fig10Schemes = func() []migration.Kind {
	var ks []migration.Kind
	for _, sc := range migration.Registered() {
		if sc.Kind != migration.Native {
			ks = append(ks, sc.Kind)
		}
	}
	return ks
}()

// Table1 renders the workload catalog: the paper's Table 1 rows followed by
// the production-service family, whose mechanistic generators have no fitted
// footprint statistics to tabulate (DESIGN.md §17).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 1: Evaluated workloads ==\n")
	fmt.Fprintf(&b, "%-15s %-8s %10s  %9s %8s %8s %7s\n",
		"benchmark", "suite", "footprint", "sharedRef", "ownFrac", "wrFrac", "runLen")
	for _, p := range workload.Catalog() {
		fmt.Fprintf(&b, "%-15s %-8s %8dGB  %9.2f %8.2f %8.2f %7.0f\n",
			p.Name, p.Suite, p.Footprint>>30, p.SharedFrac, p.OwnFrac, p.WriteFrac, p.RunLen)
	}
	fmt.Fprintf(&b, "-- production services (mechanistic generators) --\n")
	for _, p := range workload.Production() {
		fmt.Fprintf(&b, "%-15s %-8s %8dGB  mechanistic (-exp serve)\n",
			p.Name, p.Suite, p.Footprint>>30)
	}
	return b.String()
}

// Table2 renders the system configuration (Table 2).
func Table2(cfg config.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 2: System configuration ==\n")
	fmt.Fprintf(&b, "Architecture   %d hosts, %d cores per host\n", cfg.Hosts, cfg.CoresPerHost)
	fmt.Fprintf(&b, "CPU            %.0f GHz, %d-wide, %d-entry ROB, %d LQ, %d SQ, %d MSHRs\n",
		float64(cfg.CoreHz)/1e9, cfg.Width, cfg.ROB, cfg.LoadQ, cfg.StoreQ, cfg.MSHRs)
	fmt.Fprintf(&b, "L1D            %dKB %d-way, %v RT\n", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency)
	fmt.Fprintf(&b, "LLC            %dMB/core %d-way, %v RT\n", cfg.LLC.SizeBytes>>20, cfg.LLC.Ways, cfg.LLC.Latency)
	fmt.Fprintf(&b, "Local DRAM     %dx DDR5 channel, %dGB per host\n", cfg.LocalDRAM.Channels, cfg.LocalDRAM.CapacityBytes>>30)
	fmt.Fprintf(&b, "CXL-DSM DRAM   %dx DDR5 channel, %dGB pooled\n", cfg.CXLDRAM.Channels, cfg.CXLDRAM.CapacityBytes>>30)
	fmt.Fprintf(&b, "tRC-tRCD-tCL-tRP  %d-%d-%d-%d ns\n",
		int64(cfg.LocalDRAM.TRC/sim.Nanosecond), int64(cfg.LocalDRAM.TRCD/sim.Nanosecond),
		int64(cfg.LocalDRAM.TCL/sim.Nanosecond), int64(cfg.LocalDRAM.TRP/sim.Nanosecond))
	fmt.Fprintf(&b, "CXL link       %v/direction, %.0f GB/s/direction, %d switch hops\n",
		cfg.CXL.LinkLatency, cfg.CXL.LinkBW/1e9, cfg.CXL.SwitchHops)
	fmt.Fprintf(&b, "CXL directory  %d-set %d-way x %d slices, %v RT\n",
		cfg.CXL.DirSets, cfg.CXL.DirWays, cfg.CXL.DirSlices, cfg.CXL.DirLatency)
	fmt.Fprintf(&b, "PIPM           %dKB global remap cache, %dKB local remap cache, threshold %d\n",
		cfg.PIPM.GlobalRemapCacheBytes>>10, cfg.PIPM.LocalRemapCacheBytes>>10, cfg.PIPM.MigrationThreshold)
	fmt.Fprintf(&b, "Shared heap    %dMB (%d pages), scaled\n", cfg.SharedBytes>>20, cfg.SharedPages())
	return b.String()
}

// Fig4 reproduces the migration-interval study: Nomad and Memtis at the
// paper's 100 ms / 10 ms / 1 ms epochs (scaled), normalized to Native, plus
// the overhead breakdown at each interval. Every point routes through the
// engine, so the 10 ms point — the base Kernel.Interval — reuses the same
// memoized runs as Figures 5 and 10–13 instead of re-simulating.
func (s *Suite) Fig4() ([]Table, error) {
	// DefaultOptions' epoch stands in for the paper's 10 ms.
	base := s.opt.Cfg.Kernel.Interval
	intervals := []struct {
		label string
		d     sim.Time
	}{
		{"100ms", base * 10},
		{"10ms", base},
		{"1ms", base / 10},
	}
	schemes := []migration.Kind{migration.Nomad, migration.Memtis}

	intervalCfg := func(d sim.Time) config.Config {
		cfg := s.opt.Cfg
		cfg.Kernel.Interval = d
		return cfg
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		reqs = append(reqs, s.req(s.opt.Cfg, wl, migration.Native))
		for _, k := range schemes {
			for _, iv := range intervals {
				reqs = append(reqs, s.req(intervalCfg(iv.d), wl, k))
			}
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return nil, err
	}

	perf := Table{
		Title:     "Figure 4: execution time vs migration interval (normalized to Native, lower is better)",
		Note:      "interval labels are paper-equivalent; actual epochs scale with trace length",
		MeanLabel: "mean",
	}
	breakdown := Table{
		Title:     "Figure 4 (breakdown): stall fractions at each interval, averaged over workloads",
		Cols:      []string{"transfer", "mgmt", "inter-host"},
		Fmt:       "%.3f",
		MeanLabel: "",
	}

	for _, k := range schemes {
		for _, iv := range intervals {
			perf.Cols = append(perf.Cols, fmt.Sprintf("%s@%s", k, iv.label))
		}
	}
	// One simulation per (workload, scheme, interval); the breakdown table
	// aggregates the same runs.
	sums := make([][3]float64, len(perf.Cols))
	for r, wl := range s.opt.Workloads {
		perf.Rows = append(perf.Rows, wl.Name)
		perf.Cells = append(perf.Cells, make([]float64, len(perf.Cols)))
		nat, err := s.get(s.opt.Cfg, wl, migration.Native)
		if err != nil {
			return nil, err
		}
		col := 0
		for _, k := range schemes {
			for _, iv := range intervals {
				res, err := s.get(intervalCfg(iv.d), wl, k)
				if err != nil {
					return nil, err
				}
				perf.Cells[r][col] = float64(res.ExecTime) / float64(nat.ExecTime)
				sums[col][0] += res.TransferFrac
				sums[col][1] += res.MgmtStallFrac
				sums[col][2] += res.InterStallFrac
				col++
			}
		}
	}
	n := float64(len(s.opt.Workloads))
	for col, name := range perf.Cols {
		breakdown.Rows = append(breakdown.Rows, name)
		breakdown.Cells = append(breakdown.Cells,
			[]float64{sums[col][0] / n, sums[col][1] / n, sums[col][2] / n})
	}
	return []Table{perf, breakdown}, nil
}

// Fig5 reproduces the harmful-migration percentages.
func (s *Suite) Fig5() (Table, error) {
	schemes := []migration.Kind{migration.Nomad, migration.Memtis}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		for _, k := range schemes {
			reqs = append(reqs, s.req(s.opt.Cfg, wl, k))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Figure 5: percentage of harmful page migrations",
		Cols:      []string{"nomad", "memtis"},
		Fmt:       "%.1f",
		MeanLabel: "mean",
	}
	for _, wl := range s.opt.Workloads {
		row := make([]float64, 2)
		for i, k := range schemes {
			res, err := s.get(s.opt.Cfg, wl, k)
			if err != nil {
				return Table{}, err
			}
			row[i] = 100 * res.HarmfulFrac
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig10 reproduces the end-to-end comparison: speedup over Native.
func (s *Suite) Fig10() (Table, error) {
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		reqs = append(reqs, s.req(s.opt.Cfg, wl, migration.Native))
		for _, k := range fig10Schemes {
			reqs = append(reqs, s.req(s.opt.Cfg, wl, k))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Figure 10: end-to-end speedup over Native CXL-DSM (higher is better)",
		MeanLabel: "mean",
	}
	for _, k := range fig10Schemes {
		t.Cols = append(t.Cols, k.String())
	}
	for _, wl := range s.opt.Workloads {
		nat, err := s.get(s.opt.Cfg, wl, migration.Native)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, len(fig10Schemes))
		for i, k := range fig10Schemes {
			res, err := s.get(s.opt.Cfg, wl, k)
			if err != nil {
				return Table{}, err
			}
			row[i] = Speedup(res, nat)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig11 reproduces the local-memory hit rates.
func (s *Suite) Fig11() (Table, error) {
	return s.metricTable("Figure 11: local memory hit rate (%)", "%.1f",
		func(r Result) float64 { return 100 * r.LocalHitRate })
}

// Fig12 reproduces the inter-host stall contribution.
func (s *Suite) Fig12() (Table, error) {
	return s.metricTable("Figure 12: inter-host memory access stalls / total execution time (%)", "%.2f",
		func(r Result) float64 { return 100 * r.InterStallFrac })
}

// Fig13 reproduces the per-host local-footprint ratios, including the
// PIPM-page vs PIPM-line split.
func (s *Suite) Fig13() (Table, error) {
	// Every comparison scheme except PIPM (special-cased below for its
	// page/line split) and local-only (no migrated footprint by definition).
	var schemes []migration.Kind
	for _, k := range fig10Schemes {
		if k != migration.PIPM && k != migration.LocalOnly {
			schemes = append(schemes, k)
		}
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		for _, k := range schemes {
			reqs = append(reqs, s.req(s.opt.Cfg, wl, k))
		}
		reqs = append(reqs, s.req(s.opt.Cfg, wl, migration.PIPM))
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Figure 13: avg per-host local footprint / total shared footprint (%)",
		Fmt:       "%.1f",
		MeanLabel: "mean",
	}
	for _, k := range schemes {
		t.Cols = append(t.Cols, k.String())
	}
	t.Cols = append(t.Cols, "pipm-page", "pipm-line")
	for _, wl := range s.opt.Workloads {
		var row []float64
		for _, k := range schemes {
			res, err := s.get(s.opt.Cfg, wl, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, 100*res.PageFootprintFrac)
		}
		pipm, err := s.get(s.opt.Cfg, wl, migration.PIPM)
		if err != nil {
			return Table{}, err
		}
		row = append(row, 100*pipm.PageFootprintFrac, 100*pipm.LineFootprintFrac)
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

func (s *Suite) metricTable(title, cellFmt string, metric func(Result) float64) (Table, error) {
	// Local-only is dropped: per-scheme memory-path metrics are undefined
	// for the upper bound.
	var schemes []migration.Kind
	for _, k := range fig10Schemes {
		if k != migration.LocalOnly {
			schemes = append(schemes, k)
		}
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		for _, k := range schemes {
			reqs = append(reqs, s.req(s.opt.Cfg, wl, k))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{Title: title, Fmt: cellFmt, MeanLabel: "mean"}
	for _, k := range schemes {
		t.Cols = append(t.Cols, k.String())
	}
	for _, wl := range s.opt.Workloads {
		row := make([]float64, len(schemes))
		for i, k := range schemes {
			res, err := s.get(s.opt.Cfg, wl, k)
			if err != nil {
				return Table{}, err
			}
			row[i] = metric(res)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig14 reproduces the CXL link latency sensitivity: PIPM speedup over
// Native at 50 ns and 100 ns per direction.
func (s *Suite) Fig14() (Table, error) {
	return s.paramSweep(
		"Figure 14: PIPM speedup over Native vs CXL link latency",
		[]sweepPoint{
			{"50ns", func(c *config.Config) { c.CXL.LinkLatency = 50 * sim.Nanosecond }},
			{"100ns", func(c *config.Config) { c.CXL.LinkLatency = 100 * sim.Nanosecond }},
		})
}

// Fig15 reproduces the CXL link bandwidth sensitivity: ×8/×16/×32 lanes.
func (s *Suite) Fig15() (Table, error) {
	return s.paramSweep(
		"Figure 15: PIPM speedup over Native vs CXL link bandwidth",
		[]sweepPoint{
			{"x8(2.5GB/s)", func(c *config.Config) { c.CXL.LinkBW = 2.5e9 }},
			{"x16(5GB/s)", func(c *config.Config) { c.CXL.LinkBW = 5e9 }},
			{"x32(10GB/s)", func(c *config.Config) { c.CXL.LinkBW = 10e9 }},
		})
}

type sweepPoint struct {
	label string
	apply func(*config.Config)
}

// paramSweep runs Native and PIPM at each configuration point. A point that
// matches the base configuration (Fig 14's 50 ns, Fig 15's ×16) hashes to
// the same run key as the shared sweep, so its baselines come from the memo.
func (s *Suite) paramSweep(title string, points []sweepPoint) (Table, error) {
	pointCfg := func(p sweepPoint) config.Config {
		cfg := s.opt.Cfg
		p.apply(&cfg)
		return cfg
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		for _, p := range points {
			cfg := pointCfg(p)
			reqs = append(reqs,
				s.req(cfg, wl, migration.Native),
				s.req(cfg, wl, migration.PIPM))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{Title: title, MeanLabel: "mean"}
	for _, p := range points {
		t.Cols = append(t.Cols, p.label)
	}
	for _, wl := range s.opt.Workloads {
		row := make([]float64, len(points))
		for i, p := range points {
			cfg := pointCfg(p)
			nat, err := s.get(cfg, wl, migration.Native)
			if err != nil {
				return Table{}, err
			}
			pipm, err := s.get(cfg, wl, migration.PIPM)
			if err != nil {
				return Table{}, err
			}
			row[i] = Speedup(pipm, nat)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig16 reproduces the local remapping cache size sensitivity, normalized
// to an infinite cache.
func (s *Suite) Fig16() (Table, error) {
	// Sizes scale with the shrunken shared heap: the paper's 1 MB cache
	// covers 256K pages against a ~12M-page footprint; the same coverage
	// ratios at our page count give the sizes below (labels map to the
	// paper's x-axis points).
	sizes := []cacheSize{
		{"64KB(scaled)", 1 << 10},
		{"256KB(scaled)", 4 << 10},
		{"1MB(scaled)", 8 << 10},
		{"4MB(scaled)", 16 << 10},
	}
	return s.cacheSweep(
		"Figure 16: PIPM performance vs local remapping cache size (normalized to infinite)",
		func(c *config.Config, bytes int) { c.PIPM.LocalRemapCacheBytes = bytes },
		sizes)
}

// Fig17 reproduces the global remapping cache size sensitivity, normalized
// to an infinite cache.
func (s *Suite) Fig17() (Table, error) {
	// Scaled like Fig. 16: the paper's 16 KB global cache (8K entries)
	// against a ~32M-page pool maps to sub-page-count sizes here.
	sizes := []cacheSize{
		{"1KB(scaled)", 512},
		{"4KB(scaled)", 1 << 10},
		{"16KB(scaled)", 4 << 10},
		{"64KB(scaled)", 8 << 10},
	}
	return s.cacheSweep(
		"Figure 17: PIPM performance vs global remapping cache size (normalized to infinite)",
		func(c *config.Config, bytes int) { c.PIPM.GlobalRemapCacheBytes = bytes },
		sizes)
}

type cacheSize struct {
	label string
	bytes int
}

// cacheSweep is the shared body of Figures 16–17: PIPM at each cache size,
// normalized to an infinite (-1) cache, all through the engine.
func (s *Suite) cacheSweep(title string, set func(*config.Config, int), sizes []cacheSize) (Table, error) {
	sizeCfg := func(bytes int) config.Config {
		cfg := s.opt.Cfg
		set(&cfg, bytes)
		return cfg
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		reqs = append(reqs, s.req(sizeCfg(-1), wl, migration.PIPM))
		for _, sz := range sizes {
			reqs = append(reqs, s.req(sizeCfg(sz.bytes), wl, migration.PIPM))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{Title: title, Fmt: "%.3f", MeanLabel: "mean"}
	for _, sz := range sizes {
		t.Cols = append(t.Cols, sz.label)
	}
	for _, wl := range s.opt.Workloads {
		ideal, err := s.get(sizeCfg(-1), wl, migration.PIPM)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, len(sizes))
		for i, sz := range sizes {
			res, err := s.get(sizeCfg(sz.bytes), wl, migration.PIPM)
			if err != nil {
				return Table{}, err
			}
			row[i] = float64(ideal.ExecTime) / float64(res.ExecTime)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}
