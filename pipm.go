package pipm

import (
	"io"

	"pipm/internal/check"
	"pipm/internal/config"
	"pipm/internal/core"
	"pipm/internal/gapbs"
	"pipm/internal/harness"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/silo"
	"pipm/internal/sim"
	"pipm/internal/store"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
	"pipm/internal/workload"
)

// Config describes the simulated system (Table 2 of the paper): hosts,
// cores, cache geometry, DRAM timing, CXL link parameters, PIPM hardware
// parameters, and kernel-migration cost constants.
type Config = config.Config

// MaxHosts is the largest cluster a configuration may describe.
const MaxHosts = config.MaxHosts

// Time is simulated time in picoseconds.
type Time = sim.Time

// Common durations re-exported for configuring sweeps.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Scheme selects the page-placement scheme a Machine evaluates.
type Scheme = migration.Kind

// The eight schemes of the paper's evaluation (§5.1.3).
const (
	Native    = migration.Native
	Nomad     = migration.Nomad
	Memtis    = migration.Memtis
	HeMem     = migration.HeMem
	OSSkew    = migration.OSSkew
	HWStatic  = migration.HWStatic
	PIPM      = migration.PIPM
	LocalOnly = migration.LocalOnly
)

// Schemes lists every scheme in the paper's presentation order.
func Schemes() []Scheme { return append([]Scheme(nil), migration.Kinds...) }

// SchemeInfo is one scheme-registry descriptor: name, family, one-line
// description, and the family knobs (see internal/migration and DESIGN.md
// §11). The registry is the single source of truth both CLIs and the
// harness enumerate.
type SchemeInfo = migration.Scheme

// RegisteredSchemes returns every scheme descriptor in presentation order.
func RegisteredSchemes() []SchemeInfo { return migration.Registered() }

// SchemeNames lists registered scheme names in presentation order.
func SchemeNames() []string { return migration.Names() }

// ParseScheme resolves a scheme name ("pipm", "native", "hw-static", ...).
func ParseScheme(s string) (Scheme, error) { return migration.ParseKind(s) }

// Workload is a synthetic model of one Table 1 benchmark.
type Workload = workload.Params

// Workloads returns the full Table 1 catalog.
func Workloads() []Workload { return workload.Catalog() }

// ProductionWorkloads returns the production-service workload family: the
// mechanistic multi-host LLM serving (llmserve) and DAXFS shared-filesystem
// (daxfs) models.
func ProductionWorkloads() []Workload { return workload.Production() }

// AllWorkloads returns every registered workload: the Table 1 catalog
// followed by the production-service family.
func AllWorkloads() []Workload { return workload.All() }

// WorkloadByName returns the registered workload with the given name.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// WorkloadNames lists every registered workload name in order.
func WorkloadNames() []string { return workload.Names() }

// DefaultConfig returns the paper's Table 2 configuration at full scale.
func DefaultConfig() Config { return config.Default() }

// ScaledConfig returns the laptop-scale configuration the experiment
// harness uses (same ratios, smaller footprint; see DESIGN.md §1).
func ScaledConfig() Config { return harness.DefaultOptions().Cfg }

// Machine is one configured multi-host CXL-DSM system instance. Attach one
// trace per core with SetTrace, call Run once, then read Stats.
type Machine = machine.Machine

// NewMachine builds a machine for the given configuration and scheme.
func NewMachine(cfg Config, s Scheme) (*Machine, error) { return machine.New(cfg, s) }

// TraceReader yields one core's memory-reference records in program order.
type TraceReader = trace.Reader

// TraceRecord is one memory operation preceded by Gap non-memory
// instructions.
type TraceRecord = trace.Record

// Result is one (workload, scheme) measurement with the metrics the
// paper's figures report.
type Result = harness.Result

// Run executes a single simulation: cfg and scheme define the machine, wl
// generates records per-core traces seeded by seed.
func Run(cfg Config, wl Workload, s Scheme, records, seed int64) (Result, error) {
	r, _, _, err := harness.Run(harness.RunRequest{Cfg: cfg, WL: wl, Scheme: s, Records: records, Seed: seed})
	return r, err
}

// TelemetryOptions configures the sim-time observability subsystem: a
// sampling interval for interval time-series, and/or a bounded protocol
// event trace. The zero value is disabled and costs one predictable branch
// on the simulator's hot paths.
type TelemetryOptions = telemetry.Options

// TelemetryOutput is one run's collected telemetry: the sampled time-series,
// final latency histograms, and the protocol event trace.
type TelemetryOutput = telemetry.Output

// Speedup returns base's execution time over r's (>1 ⇒ r is faster).
func Speedup(r, base Result) float64 { return harness.Speedup(r, base) }

// Suite runs the paper's experiments (Figures 4–5 and 10–17, rendered
// through Artefacts) over one option set. Every simulation flows through a
// run-graph engine that deduplicates runs by canonical key (RunKeyOf) and
// executes them on a worker pool bounded by SuiteOptions.Workers; rendered
// artefacts are byte-identical for any worker count.
type Suite = harness.Suite

// SuiteOptions configures an experiment sweep, including the engine's
// Workers bound and optional Progress writer.
type SuiteOptions = harness.Options

// RunStats is the engine's observability record for one executed
// simulation: wall-clock, simulated time, instruction throughput and memo
// hits. Suite.RunStats returns one per deduplicated run.
type RunStats = harness.RunStats

// RunKeyOf returns the canonical run key (hex) identifying one simulation:
// a digest of the full configuration, complete workload parameters, scheme,
// per-core record budget and seed. Equal keys ⇒ bit-identical results.
func RunKeyOf(cfg Config, wl Workload, s Scheme, records, seed int64) string {
	return harness.KeyOf(cfg, wl, s, records, seed).String()
}

// ResultStore is the disk-backed, content-addressed result store
// (DESIGN.md §14): a directory of verified, atomically-written entries keyed
// by canonical run key. Attach one via SuiteOptions.Store and the engine's
// in-memory memo falls through to disk before simulating, so a repeated
// sweep in a fresh process re-simulates nothing.
type ResultStore = store.Store

// StoreEntryInfo describes one stored entry (key, size, mtime) for listings
// and GC decisions.
type StoreEntryInfo = store.EntryInfo

// OpenStore opens dir as a result store, creating it if needed, and probes
// it for writability so an unusable store path fails before any simulation.
func OpenStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// StoreStats is one engine's result-store traffic: runs answered from disk
// (hits), runs that had to simulate (misses), entries that failed
// verification and were re-simulated (corrupt), and write-backs (saves).
type StoreStats = harness.StoreStats

// ErrStoreMiss reports a key with no stored entry — the ordinary cold-cache
// outcome of ResultStore.Load.
var ErrStoreMiss = store.ErrMiss

// IsStoreCorrupt reports whether err marks a store entry that failed
// verification (and was therefore treated as a miss).
func IsStoreCorrupt(err error) bool { return store.IsCorrupt(err) }

// DecodeStoredResult decodes and digest-verifies one store entry body,
// returning the Result and whether telemetry was attached. cmd/storecheck
// uses this to deep-verify entries beyond the container checksum.
func DecodeStoredResult(body []byte) (Result, bool, error) {
	return harness.DecodeStoredResult(body)
}

// WriteFileAtomic atomically replaces path with data: the write is staged in
// a temp file in the destination directory, fsynced, then renamed into
// place. Every durable artefact the CLIs emit goes through this — a crash
// mid-write must never leave a truncated document behind.
func WriteFileAtomic(path string, data []byte) error { return store.WriteFileAtomic(path, data) }

// WriteToAtomic is WriteFileAtomic for streamed exports too large to buffer.
func WriteToAtomic(path string, write func(io.Writer) error) error {
	return store.WriteToAtomic(path, write)
}

// ProbeOutputFile verifies up front that path can be created (parent exists,
// is writable, path is not a directory), so a doomed sweep fails in
// milliseconds instead of at export time.
func ProbeOutputFile(path string) error { return store.ProbeFile(path) }

// Runner is the run-graph engine's direct face for callers that want
// memoised, store-backed, bounded-parallel execution of individual requests
// without the Suite's figure builders.
type Runner = harness.Runner

// RunRequest names one simulation for a Runner: configuration, workload,
// scheme, budget, seed and the optional subsystems that join the run
// identity when enabled.
type RunRequest = harness.RunRequest

// NewRunner builds a Runner from a SuiteOptions (Workers, Progress and Store
// are honoured; the sweep-shaping fields are ignored).
func NewRunner(o SuiteOptions) *Runner { return harness.NewRunner(o) }

// Table is a rendered experiment artefact.
type Table = harness.Table

// Artefact is one printable evaluation artefact: its id and the function
// that renders its text on a Suite (hosts is the cluster-size ladder of
// clusterscale and serve; nil means ClusterScaleHosts).
type Artefact = harness.Artefact

// Artefacts returns every artefact cmd/experiments can print, in
// presentation order: Tables 1–2, Figures 4–5 and 10–17, the extension
// studies and the protocol model check.
func Artefacts() []Artefact { return harness.Artefacts() }

// NewSuite builds an experiment suite.
func NewSuite(o SuiteOptions) *Suite { return harness.NewSuite(o) }

// DefaultSuiteOptions returns the scaled-down sweep configuration used for
// EXPERIMENTS.md.
func DefaultSuiteOptions() SuiteOptions { return harness.DefaultOptions() }

// QuickSuiteOptions returns a small configuration suitable for tests and
// demos (three workloads, short traces).
func QuickSuiteOptions() SuiteOptions { return harness.QuickOptions() }

// ScaleForHosts derives the cluster-size variant of a configuration: the
// host count plus a directory sliced for it (the cluster-scale experiment's
// config rule).
func ScaleForHosts(cfg Config, hosts int) Config { return harness.ScaleForHosts(cfg, hosts) }

// ClusterScaleRecords scales a per-core record budget inversely with the
// host count, keeping total trace volume near the base configuration's.
func ClusterScaleRecords(recordsPerCore int64, baseHosts, hosts int) int64 {
	return harness.ClusterScaleRecords(recordsPerCore, baseHosts, hosts)
}

// ClusterScaleHosts is the default host ladder of the cluster-scale
// experiment.
func ClusterScaleHosts() []int { return harness.ClusterScaleHosts() }

// Table1 renders the workload catalog; Table2 renders a configuration.
func Table1() string           { return harness.Table1() }
func Table2(cfg Config) string { return harness.Table2(cfg) }

// Graph is a CSR graph for the algorithmic workload generators.
type Graph = gapbs.Graph

// GraphKernel selects the graph algorithm AttachGraphKernel executes.
type GraphKernel = gapbs.Kernel

// The GAP kernels the algorithmic generator can execute.
const (
	KernelPageRank = gapbs.PageRank
	KernelBFS      = gapbs.BFS
	KernelSSSP     = gapbs.SSSP
)

// KroneckerGraph builds an RMAT/Kronecker graph (2^scale vertices, ≈degree
// edges per vertex) with the Graph500 parameters the GAP suite specifies.
func KroneckerGraph(scale, degree int, seed int64) *Graph {
	return gapbs.Kronecker(scale, degree, seed)
}

// AttachGraphKernel lays g out in m's shared heap (vertex arrays plus CSR
// adjacency, partitioned by vertex ownership) and attaches one trace reader
// per core that actually executes the kernel, emitting its true memory
// accesses — the mechanistic alternative to the statistical Workloads.
func AttachGraphKernel(m *Machine, g *Graph, k GraphKernel, records, seed int64) error {
	cfg := m.Config()
	layout, err := gapbs.NewLayout(m.AddressMap(), g, cfg.Hosts)
	if err != nil {
		return err
	}
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, layout.NewReader(k, h, c, cfg.CoresPerHost, records, seed))
		}
	}
	return nil
}

// StoreOp selects the database operation mix AttachStoreWorkload executes.
type StoreOp = silo.Op

// The database operation mixes the mini-Silo store can execute.
const (
	StoreYCSB = silo.YCSB
	StoreTPCC = silo.TPCC
)

// AttachStoreWorkload lays a mini-Silo store (hash directory + partitioned
// record heap) out in m's shared heap and attaches per-core readers that
// execute YCSB point operations or TPC-C-style transactions, emitting their
// true memory accesses. warehouses must be ≥ the host count.
func AttachStoreWorkload(m *Machine, op StoreOp, warehouses, records, seed int64) error {
	cfg := m.Config()
	st, err := silo.NewStore(m.AddressMap(), cfg.Hosts, warehouses)
	if err != nil {
		return err
	}
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, st.NewReader(op, h, c, cfg.CoresPerHost, records, seed))
		}
	}
	return nil
}

// PageHint is the §6 software interface's per-page mode.
type PageHint = core.Hint

// Per-page hint modes: the default majority-vote policy, never-migrate, or
// pinned to one host.
const (
	HintAuto      = core.HintAuto
	HintNoMigrate = core.HintNoMigrate
	HintPinned    = core.HintPinned
)

// CheckResult summarizes a model-checking run of the coherence protocol.
type CheckResult = check.Result

// CheckViolation describes an invariant failure with its witness path.
type CheckViolation = check.Violation

// VerifyCoherence exhaustively model-checks the coherence protocol on a
// one-line instance (the paper's §5.1.4 Murφ methodology): hosts ∈ [2,4];
// pipmExtension selects base MSI (false) or MSI+PIPM (true). It returns the
// exploration summary and the first invariant violation found, if any.
func VerifyCoherence(hosts int, pipmExtension bool) (CheckResult, *CheckViolation) {
	return check.Run(check.Options{Hosts: hosts, Lines: 1, PIPM: pipmExtension, Workers: 1})
}
