package harness

import (
	"fmt"
	"io"
	"strings"

	"pipm/internal/check"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// Suite runs the paper's experiments over one Options. All simulations flow
// through one Runner, whose run-graph engine deduplicates by canonical
// RunKey and executes on a bounded worker pool, so figures share runs (the
// Fig 10–13 sweep, every figure's Native baseline, Fig 4's base-interval
// points, the sensitivity studies' default-parameter points) and
// independent runs proceed in parallel. Each figure is one body that names
// its runs through a plan (see build) and assembles its tables from the
// memo in presentation order — rendered output is byte-identical for any
// worker count.
type Suite struct {
	opt Options
	run *Runner
}

// NewSuite builds a suite.
func NewSuite(opt Options) *Suite { return &Suite{opt: opt, run: NewRunner(opt)} }

// Options returns the suite's options.
func (s *Suite) Options() Options { return s.opt }

// RunStats returns the observability record of every simulation executed so
// far — wall clock, simulated time, instruction throughput and memo hits —
// sorted by (workload, scheme, key).
func (s *Suite) RunStats() []RunStats { return s.run.RunStats() }

// StoreStats reports the persistent result store's traffic for this suite;
// ok is false when Options.Store was nil.
func (s *Suite) StoreStats() (StoreStats, bool) { return s.run.StoreStats() }

// Telemetry returns the collected telemetry of every completed run, sorted
// by (workload, scheme, key). Empty unless Options.Telemetry was enabled.
func (s *Suite) Telemetry() []RunTelemetry { return s.run.eng.telemetrySnapshot() }

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
	r := s.opt.Request(wl, k)
	r.Cfg = cfg
	return r
}

// Artefact is one printable evaluation artefact: its -exp id and the
// function that renders its text on a suite. hosts is the cluster-size
// ladder of the artefacts that have one (clusterscale and serve; nil means
// ClusterScaleHosts); the others ignore it.
type Artefact struct {
	ID     string
	Render func(s *Suite, hosts []int) (string, error)
}

// Artefacts returns every artefact in presentation order: Tables 1–2, the
// paper's Figures 4–5 and 10–17, the extension studies and the protocol
// model check. It is a function rather than a variable so that binaries
// which never call it do not link the figure bodies and the model checker.
func Artefacts() []Artefact {
	return []Artefact{
		{"table1", func(*Suite, []int) (string, error) { return Table1(), nil }},
		{"table2", func(s *Suite, _ []int) (string, error) { return Table2(s.opt.Cfg), nil }},
		{"fig4", figure(fig4).render},
		{"fig5", figure(fig5).render},
		{"fig10", figure(fig10).render},
		{"fig11", figure(fig11).render},
		{"fig12", figure(fig12).render},
		{"fig13", figure(fig13).render},
		{"fig14", figure(fig14).render},
		{"fig15", figure(fig15).render},
		{"fig16", figure(fig16).render},
		{"fig17", figure(fig17).render},
		// Scalability has its own host ladder; the build call's is for the
		// cluster-size figures.
		{"scalability", figure(func(p *plan, _ []int) []Table { return scalability(p, nil) }).render},
		{"clusterscale", figure(clusterScale).render},
		{"serve", figure(serveComparison).render},
		{"threshold", figure(thresholdSensitivity).render},
		{"adaptivity", figure(adaptivity).render},
		{"protocheck", protocheck},
	}
}

// figure is one figure's body: it names every run through p and assembles
// its tables from the answers. hosts is the build call's host ladder.
type figure func(p *plan, hosts []int) []Table

// render builds f on s and concatenates its formatted tables.
func (f figure) render(s *Suite, hosts []int) (string, error) {
	tabs, err := s.build(f, hosts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range tabs {
		b.WriteString(t.Format())
	}
	return b.String(), nil
}

// plan is a figure body's handle on the run graph. build runs the body
// twice over one plan: the planning pass records every request and answers
// each with a zero Result; the engine then executes the recorded set on the
// worker pool; the assembly pass reruns the body, which now reads every
// Result from the memo. A figure therefore names its runs once, and its run
// set cannot drift from its tables. Bodies must not branch on a Result.
type plan struct {
	*Suite
	reqs     []RunRequest // planning pass: every request, in body order
	assemble bool         // assembly pass: answer from the memo
	err      error        // first failed request of the assembly pass
}

// build runs body's planning pass, executes the planned runs, and returns
// the tables of its assembly pass. The error is the first failed run in
// request order, so it is the same for any worker count.
func (s *Suite) build(body figure, hosts []int) ([]Table, error) {
	p := &plan{Suite: s}
	body(p, hosts)
	if err := s.run.eng.runAll(p.reqs); err != nil {
		return nil, err
	}
	p.assemble = true
	tabs := body(p, hosts)
	if p.err != nil {
		return nil, p.err
	}
	return tabs, nil
}

// fetch answers one request: a zero Result while planning, the memoized
// Result while assembling.
func (p *plan) fetch(r RunRequest) Result {
	if !p.assemble {
		p.reqs = append(p.reqs, r)
		return Result{}
	}
	res, err := p.run.Get(r)
	if err != nil && p.err == nil {
		p.err = err
	}
	return res
}

// get fetches the suite's run of wl under k on cfg.
func (p *plan) get(cfg config.Config, wl workload.Params, k migration.Kind) Result {
	return p.fetch(p.req(cfg, wl, k))
}

// telemetry returns a fetched run's collected telemetry; nil while
// planning.
func (p *plan) telemetry(r RunRequest) *telemetry.Output {
	if !p.assemble {
		return nil
	}
	return p.run.Telemetry(r)
}

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
	// Table 2's ROB and load/store queue sizes are printed as the paper
	// gives them; the core model does not use them.
	fmt.Fprintf(&b, "CPU            %.0f GHz, %d-wide, 224-entry ROB, 72 LQ, 56 SQ, %d MSHRs\n",
		float64(cfg.CoreHz)/1e9, cfg.Width, cfg.MSHRs)
	fmt.Fprintf(&b, "L1D            %dKB %d-way, %v RT\n", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency)
	llc := fmt.Sprintf("%dMB", cfg.LLC.SizeBytes>>20)
	if cfg.LLC.SizeBytes < 1<<20 {
		llc = fmt.Sprintf("%dKB", cfg.LLC.SizeBytes>>10) // the scaled configurations
	}
	fmt.Fprintf(&b, "LLC            %s/core %d-way, %v RT\n", llc, cfg.LLC.Ways, cfg.LLC.Latency)
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

// protocheck renders the paper's §5.1.4 model-check rows: base MSI and
// MSI+PIPM, exhaustively explored on one line at 2 and 3 hosts.
func protocheck(*Suite, []int) (string, error) {
	var b strings.Builder
	for _, hosts := range []int{2, 3} {
		for _, ext := range []bool{false, true} {
			name := "MSI"
			if ext {
				name = "MSI+PIPM"
			}
			res, v := check.Run(check.Options{Hosts: hosts, Lines: 1, PIPM: ext, Workers: 1})
			if v != nil {
				return "", fmt.Errorf("%s/%d hosts: %v", name, hosts, v)
			}
			fmt.Fprintf(&b, "%-9s %d hosts: %d states, %d transitions, SWMR+SC hold, deadlock-free\n",
				name, hosts, res.States, res.Transitions)
		}
	}
	return b.String(), nil
}

// fig4 reproduces the migration-interval study: Nomad and Memtis at the
// paper's 100 ms / 10 ms / 1 ms epochs (scaled), normalized to Native, plus
// the overhead breakdown at each interval. The 10 ms point — the base
// Kernel.Interval — is the same run as Figures 5 and 10–13 use.
func fig4(p *plan, _ []int) []Table {
	// DefaultOptions' epoch stands in for the paper's 10 ms.
	base := p.opt.Cfg.Kernel.Interval
	intervals := []struct {
		label string
		d     sim.Time
	}{
		{"100ms", base * 10},
		{"10ms", base},
		{"1ms", base / 10},
	}
	schemes := []migration.Kind{migration.Nomad, migration.Memtis}

	perf := Table{
		Title:     "Figure 4: execution time vs migration interval (normalized to Native, lower is better)",
		Note:      "interval labels are paper-equivalent; actual epochs scale with trace length",
		MeanLabel: "mean",
	}
	breakdown := Table{
		Title: "Figure 4 (breakdown): stall fractions at each interval, averaged over workloads",
		Cols:  []string{"transfer", "mgmt", "inter-host"},
		Fmt:   "%.3f",
	}
	for _, k := range schemes {
		for _, iv := range intervals {
			perf.Cols = append(perf.Cols, fmt.Sprintf("%s@%s", k, iv.label))
		}
	}
	// One simulation per (workload, scheme, interval); the breakdown table
	// aggregates the same runs.
	sums := make([][3]float64, len(perf.Cols))
	for _, wl := range p.opt.Workloads {
		nat := p.get(p.opt.Cfg, wl, migration.Native)
		var row []float64
		for _, k := range schemes {
			for _, iv := range intervals {
				cfg := p.opt.Cfg
				cfg.Kernel.Interval = iv.d
				res := p.get(cfg, wl, k)
				row = append(row, float64(res.ExecTime)/float64(nat.ExecTime))
				col := len(row) - 1
				sums[col][0] += res.TransferFrac
				sums[col][1] += res.MgmtStallFrac
				sums[col][2] += res.InterStallFrac
			}
		}
		perf.Rows = append(perf.Rows, wl.Name)
		perf.Cells = append(perf.Cells, row)
	}
	n := float64(len(p.opt.Workloads))
	for col, name := range perf.Cols {
		breakdown.Rows = append(breakdown.Rows, name)
		breakdown.Cells = append(breakdown.Cells,
			[]float64{sums[col][0] / n, sums[col][1] / n, sums[col][2] / n})
	}
	return []Table{perf, breakdown}
}

// fig5 reproduces the harmful-migration percentages.
func fig5(p *plan, _ []int) []Table {
	t := Table{
		Title:     "Figure 5: percentage of harmful page migrations",
		Cols:      []string{"nomad", "memtis"},
		Fmt:       "%.1f",
		MeanLabel: "mean",
	}
	for _, wl := range p.opt.Workloads {
		var row []float64
		for _, k := range []migration.Kind{migration.Nomad, migration.Memtis} {
			row = append(row, 100*p.get(p.opt.Cfg, wl, k).HarmfulFrac)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// fig10 reproduces the end-to-end comparison: speedup over Native.
func fig10(p *plan, _ []int) []Table {
	t := Table{
		Title:     "Figure 10: end-to-end speedup over Native CXL-DSM (higher is better)",
		MeanLabel: "mean",
	}
	for _, k := range fig10Schemes {
		t.Cols = append(t.Cols, k.String())
	}
	for _, wl := range p.opt.Workloads {
		nat := p.get(p.opt.Cfg, wl, migration.Native)
		var row []float64
		for _, k := range fig10Schemes {
			row = append(row, Speedup(p.get(p.opt.Cfg, wl, k), nat))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// fig11 reproduces the local-memory hit rates.
func fig11(p *plan, _ []int) []Table {
	return metricTable(p, "Figure 11: local memory hit rate (%)", "%.1f",
		func(r Result) float64 { return 100 * r.LocalHitRate })
}

// fig12 reproduces the inter-host stall contribution.
func fig12(p *plan, _ []int) []Table {
	return metricTable(p, "Figure 12: inter-host memory access stalls / total execution time (%)", "%.2f",
		func(r Result) float64 { return 100 * r.InterStallFrac })
}

// fig13 reproduces the per-host local-footprint ratios, including the
// PIPM-page vs PIPM-line split.
func fig13(p *plan, _ []int) []Table {
	t := Table{
		Title:     "Figure 13: avg per-host local footprint / total shared footprint (%)",
		Fmt:       "%.1f",
		MeanLabel: "mean",
	}
	// Every comparison scheme except PIPM (special-cased below for its
	// page/line split) and local-only (no migrated footprint by definition).
	var schemes []migration.Kind
	for _, k := range fig10Schemes {
		if k != migration.PIPM && k != migration.LocalOnly {
			schemes = append(schemes, k)
			t.Cols = append(t.Cols, k.String())
		}
	}
	t.Cols = append(t.Cols, "pipm-page", "pipm-line")
	for _, wl := range p.opt.Workloads {
		var row []float64
		for _, k := range schemes {
			row = append(row, 100*p.get(p.opt.Cfg, wl, k).PageFootprintFrac)
		}
		pipm := p.get(p.opt.Cfg, wl, migration.PIPM)
		row = append(row, 100*pipm.PageFootprintFrac, 100*pipm.LineFootprintFrac)
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// metricTable is the shared body of Figures 11–12: one Result metric per
// workload × comparison scheme. Local-only is dropped: per-scheme
// memory-path metrics are undefined for the upper bound.
func metricTable(p *plan, title, cellFmt string, metric func(Result) float64) []Table {
	t := Table{Title: title, Fmt: cellFmt, MeanLabel: "mean"}
	var schemes []migration.Kind
	for _, k := range fig10Schemes {
		if k != migration.LocalOnly {
			schemes = append(schemes, k)
			t.Cols = append(t.Cols, k.String())
		}
	}
	for _, wl := range p.opt.Workloads {
		var row []float64
		for _, k := range schemes {
			row = append(row, metric(p.get(p.opt.Cfg, wl, k)))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// fig14 reproduces the CXL link latency sensitivity: PIPM speedup over
// Native at 50 ns and 100 ns per direction.
func fig14(p *plan, _ []int) []Table {
	return paramSweep(p,
		"Figure 14: PIPM speedup over Native vs CXL link latency",
		[]sweepPoint{
			{"50ns", func(c *config.Config) { c.CXL.LinkLatency = 50 * sim.Nanosecond }},
			{"100ns", func(c *config.Config) { c.CXL.LinkLatency = 100 * sim.Nanosecond }},
		})
}

// fig15 reproduces the CXL link bandwidth sensitivity: ×8/×16/×32 lanes.
func fig15(p *plan, _ []int) []Table {
	return paramSweep(p,
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
func paramSweep(p *plan, title string, points []sweepPoint) []Table {
	t := Table{Title: title, MeanLabel: "mean"}
	for _, pt := range points {
		t.Cols = append(t.Cols, pt.label)
	}
	for _, wl := range p.opt.Workloads {
		var row []float64
		for _, pt := range points {
			cfg := p.opt.Cfg
			pt.apply(&cfg)
			nat := p.get(cfg, wl, migration.Native)
			row = append(row, Speedup(p.get(cfg, wl, migration.PIPM), nat))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}

// fig16 reproduces the local remapping cache size sensitivity, normalized
// to an infinite cache.
func fig16(p *plan, _ []int) []Table {
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
	return cacheSweep(p,
		"Figure 16: PIPM performance vs local remapping cache size (normalized to infinite)",
		func(c *config.Config, bytes int) { c.PIPM.LocalRemapCacheBytes = bytes },
		sizes)
}

// fig17 reproduces the global remapping cache size sensitivity, normalized
// to an infinite cache.
func fig17(p *plan, _ []int) []Table {
	// Scaled like Fig. 16: the paper's 16 KB global cache (8K entries)
	// against a ~32M-page pool maps to sub-page-count sizes here.
	sizes := []cacheSize{
		{"1KB(scaled)", 512},
		{"4KB(scaled)", 1 << 10},
		{"16KB(scaled)", 4 << 10},
		{"64KB(scaled)", 8 << 10},
	}
	return cacheSweep(p,
		"Figure 17: PIPM performance vs global remapping cache size (normalized to infinite)",
		func(c *config.Config, bytes int) { c.PIPM.GlobalRemapCacheBytes = bytes },
		sizes)
}

type cacheSize struct {
	label string
	bytes int
}

// cacheSweep is the shared body of Figures 16–17: PIPM at each cache size,
// normalized to an infinite (-1) cache.
func cacheSweep(p *plan, title string, set func(*config.Config, int), sizes []cacheSize) []Table {
	pipmAt := func(wl workload.Params, bytes int) Result {
		cfg := p.opt.Cfg
		set(&cfg, bytes)
		return p.get(cfg, wl, migration.PIPM)
	}
	t := Table{Title: title, Fmt: "%.3f", MeanLabel: "mean"}
	for _, sz := range sizes {
		t.Cols = append(t.Cols, sz.label)
	}
	for _, wl := range p.opt.Workloads {
		ideal := pipmAt(wl, -1)
		var row []float64
		for _, sz := range sizes {
			row = append(row, float64(ideal.ExecTime)/float64(pipmAt(wl, sz.bytes).ExecTime))
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return []Table{t}
}
