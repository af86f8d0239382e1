// Package harness runs the paper's experiments: it builds machines,
// attaches synthetic workload traces, executes them across schemes and
// parameter sweeps, and renders each of the evaluation section's tables and
// figures (Table 1–2, Figures 4–5 and 10–17) as text tables.
//
// Scale note: the harness runs laptop-sized instances — the same system
// ratios as Table 2 but a smaller shared heap and shorter traces, with
// kernel migration intervals scaled down by the same factor as the
// instruction budget (the paper's 10 ms epoch over 10 B instructions
// becomes a 200 µs epoch over our default traces). EXPERIMENTS.md records
// paper-vs-measured numbers for every artefact.
package harness

import (
	"io"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/store"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// Options configures an experiment sweep.
type Options struct {
	Cfg            config.Config     // base system configuration
	Workloads      []workload.Params // defaults to the full Table 1 catalog
	RecordsPerCore int64
	Seed           int64

	// Workers bounds how many simulations the suite's run-graph engine
	// executes concurrently; ≤ 0 means GOMAXPROCS. Rendered artefacts are
	// byte-identical for any worker count.
	Workers int
	// Progress, when non-nil, receives one line per completed simulation
	// with wall/sim time, throughput and an ETA for the queued remainder.
	Progress io.Writer
	// OnRunDone, when non-nil, receives one RunStats per completed execution
	// (simulated or store-loaded) in completion order — the engine's ordered
	// progress seam, exported. It is invoked while the engine lock is held,
	// so it must return quickly and must never call back into the engine or
	// the Runner; the experiment service uses it for live metrics.
	OnRunDone func(RunStats)

	// Telemetry configures the observability subsystem for every run the
	// suite executes. The zero value is disabled and keeps run keys — and
	// therefore the memo — identical to a telemetry-free sweep; enabled
	// telemetry is folded into the key so collected output stays attached to
	// its run. Telemetry never perturbs simulation results.
	Telemetry telemetry.Options

	// Audit attaches the runtime invariant auditor to every run the suite
	// executes; any invariant violation fails the run. Like Telemetry, the
	// zero value is disabled, keeps run keys unchanged, and the auditor is
	// observation-only — an audited run's Result is bit-identical to an
	// unaudited one.
	Audit audit.Options

	// Store, when non-nil, is the persistent result store layered under the
	// engine's in-memory memo (DESIGN.md §14): a memo miss consults the
	// store before simulating, and completed simulations are written back so
	// a later process can skip them. Audited runs bypass the store — the
	// auditor's sweeps must actually execute.
	Store *store.Store
}

// DefaultOptions returns the scaled-down sweep configuration: Table 2
// ratios with the shared heap, caches, kernel epoch and kernel per-page
// costs all scaled by the same ~50× factor as the instruction budget, so
// per-epoch migration volume matches the paper's regime (see DESIGN.md §1).
func DefaultOptions() Options {
	cfg := config.Default()
	cfg.SharedBytes = 16 << 20 // 4096 shared pages
	cfg.L1D = config.CacheConfig{SizeBytes: 8 << 10, Ways: 4, Latency: sim.Nanosecond}
	cfg.LLC = config.CacheConfig{SizeBytes: 128 << 10, Ways: 16, Latency: 6 * sim.Nanosecond}
	cfg.Kernel.Interval = 400 * sim.Microsecond // scaled 10 ms epoch
	cfg.Kernel.InitiatorCost = 400 * sim.Nanosecond
	cfg.Kernel.RemoteCost = 100 * sim.Nanosecond
	cfg.Kernel.MaxLocalFrac = 0.08 // paper observes 5–7% per-host residency
	cfg.Kernel.MaxPagesPerEpoch = 128
	return Options{
		Cfg:            cfg,
		Workloads:      workload.Catalog(),
		RecordsPerCore: 400_000,
		Seed:           1,
	}
}

// QuickOptions returns a configuration small enough for unit tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Cfg.CoresPerHost = 1
	o.Cfg.SharedBytes = 4 << 20
	o.Cfg.Kernel.Interval = 100 * sim.Microsecond
	o.RecordsPerCore = 60_000
	o.Workloads = []workload.Params{
		mustWorkload("pr"),
		mustWorkload("canneal"),
		mustWorkload("ycsb"),
	}
	return o
}

func mustWorkload(name string) workload.Params {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Result is one (workload, scheme) measurement.
type Result struct {
	Workload string
	Scheme   migration.Kind

	ExecTime     sim.Time
	IPC          float64
	Instructions int64 // total simulated instructions across all cores

	LocalHitRate   float64
	InterStallFrac float64
	MgmtStallFrac  float64
	TransferFrac   float64
	HarmfulFrac    float64

	// Footprint fractions: time-averaged per-host local residency over the
	// total shared footprint.
	PageFootprintFrac float64
	LineFootprintFrac float64

	Promotions uint64
	Demotions  uint64
	LinesMoved uint64
	BytesMoved uint64

	LocalRemapHitRate  float64
	GlobalRemapHitRate float64
}

// Run executes one simulation: it builds the machine, attaches the
// workload's per-core generators and collects the Result. Telemetry and audit
// are observers — neither changes one bit of the Result. The telemetry output
// is nil unless req enables it; the Report carries any invariant violations
// (Report.Err() is nil on a clean or unaudited run).
func Run(req RunRequest) (Result, *telemetry.Output, audit.Report, error) {
	if err := req.WL.Validate(); err != nil {
		return Result{}, nil, audit.Report{}, err
	}
	m, err := machine.New(req.Cfg, req.Scheme)
	if err != nil {
		return Result{}, nil, audit.Report{}, err
	}
	if err := m.EnableTelemetry(req.Telemetry); err != nil {
		return Result{}, nil, audit.Report{}, err
	}
	if err := m.EnableAuditor(req.Audit); err != nil {
		return Result{}, nil, audit.Report{}, err
	}
	am := m.AddressMap()
	for h := 0; h < req.Cfg.Hosts; h++ {
		for c := 0; c < req.Cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, req.WL.NewReader(am, req.Cfg.Hosts, h, c, req.Records, req.Seed))
		}
	}
	if err := m.Run(); err != nil {
		return Result{}, nil, audit.Report{}, err
	}
	return Collect(m, req.WL.Name), m.TelemetryOutput(), m.AuditReport(), nil
}

// Collect assembles the Result of a finished machine, labelled with the
// given workload name. Every run is reported through it — generated runs by
// Run, replayed traces by their caller — so both report the same metrics.
func Collect(m *machine.Machine, workload string) Result {
	cfg := m.Config()
	col := m.Stats()
	sharedPages := float64(cfg.SharedPages())
	r := Result{
		Workload:          workload,
		Scheme:            m.Scheme(),
		ExecTime:          m.ExecTime(),
		IPC:               m.IPC(),
		Instructions:      col.Instructions(),
		LocalHitRate:      col.LocalHitRate(),
		InterStallFrac:    col.StallFraction(stats.ClassInterHost),
		MgmtStallFrac:     col.MgmtFraction(),
		TransferFrac:      col.TransferFraction(),
		HarmfulFrac:       m.HarmfulFraction(),
		PageFootprintFrac: col.MeanPageFootprint() / sharedPages,
		LineFootprintFrac: col.MeanLineFootprint() / (sharedPages * config.LinesPerPage),
		Promotions:        col.Promotions,
		Demotions:         col.Demotions,
		LinesMoved:        col.LinesMoved,
		BytesMoved:        col.BytesMoved,
	}
	if mgr := m.Manager(); mgr != nil {
		r.GlobalRemapHitRate = mgr.GlobalCache().HitRate()
		// Aggregate the local remap-cache hit rate over every host's cache
		// (total hits / total lookups), not just host 0's.
		var hits, lookups uint64
		for h := 0; h < cfg.Hosts; h++ {
			lc := mgr.LocalCache(h)
			hits += lc.Hits()
			lookups += lc.Hits() + lc.Misses()
		}
		if lookups > 0 {
			r.LocalRemapHitRate = float64(hits) / float64(lookups)
		}
	}
	return r
}

// Speedup returns base execution time over r's (— >1 means r is faster).
func Speedup(r, base Result) float64 {
	if r.ExecTime <= 0 {
		return 0
	}
	return float64(base.ExecTime) / float64(r.ExecTime)
}
