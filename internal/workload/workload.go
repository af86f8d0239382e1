// Package workload provides synthetic stand-ins for the paper's Pin-traced
// benchmarks (Table 1): the six GAP graph kernels, XSBench, four PARSEC
// applications, and the two Silo database workloads (TPC-C, YCSB).
//
// Substitution rationale (DESIGN.md §1): migration-scheme behaviour depends
// on the page/line-granularity access stream each host emits — footprint
// split, per-host partition affinity, inter-host sharing, popularity skew,
// spatial run lengths, and read/write mix. Each workload is a parameter
// preset over those axes, calibrated to the qualitative characterization in
// the paper (§5.2: graph kernels have strong per-host locality; databases
// are random and scattered; canneal-style workloads are contested).
// Generators are fully deterministic for a given (workload, host, core,
// seed) tuple.
package workload

import (
	"fmt"

	"pipm/internal/config"
	"pipm/internal/daxfs"
	"pipm/internal/llmserve"
	"pipm/internal/trace"
)

// Params describes one workload's memory behaviour.
type Params struct {
	Name      string
	Suite     string
	Footprint int64 // nominal footprint from Table 1 (display only)

	// SharedFrac is the fraction of references to the shared heap; the
	// rest go to the core's private stack window.
	SharedFrac float64

	// Of shared references: OwnFrac hit the host's own partition of the
	// heap, SpillFrac hit the next host's partition (boundary exchange),
	// and the remainder spread over the whole heap ("global" structures).
	OwnFrac   float64
	SpillFrac float64

	// ZipfS is the popularity skew of page selection within a region
	// (0 = uniform; larger = hotter hot pages; values ≤ 1 are clamped to
	// the generator's minimum usable skew).
	ZipfS float64

	// RunLen is the mean sequential run length in cache lines (1 = pointer
	// chasing, large = streaming).
	RunLen float64

	// WriteFrac is the store fraction.
	WriteFrac float64

	// GapMean is the mean number of non-memory instructions between
	// memory references (compute intensity).
	GapMean int

	// DepFrac is the fraction of memory operations that are address-
	// dependent on the previous one (pointer chasing); it bounds the
	// memory-level parallelism the out-of-order core can extract.
	DepFrac float64

	// RotateEvery, when nonzero, shifts each host's partition affinity by
	// one host every RotateEvery records — a phase change (e.g. graph
	// repartitioning, shard rebalancing) that adaptive migration must
	// follow and a static mapping cannot. Zero keeps affinity fixed, as in
	// the Table 1 calibration.
	RotateEvery int64

	// Serve, when enabled (any nonzero field), replaces the statistical
	// generator with the mechanistic multi-host LLM serving model
	// (internal/llmserve); the statistical knobs above are then unused.
	Serve llmserve.Params

	// FS, when enabled, replaces the statistical generator with the
	// mechanistic DAXFS shared-filesystem model (internal/daxfs).
	FS daxfs.Params
}

// Mechanistic reports whether the params select a mechanistic generator
// (Serve or FS) instead of the statistical one.
func (p Params) Mechanistic() bool { return p.Serve.Enabled() || p.FS.Enabled() }

// Validate rejects parameter sets no generator can execute: at most one
// mechanistic model selected, and its knobs self-consistent. Statistical
// presets are construction-validated by the catalog and always pass.
func (p Params) Validate() error {
	if p.Serve.Enabled() && p.FS.Enabled() {
		return fmt.Errorf("workload %q: Serve and FS are mutually exclusive", p.Name)
	}
	if p.Serve.Enabled() {
		return p.Serve.Validate()
	}
	if p.FS.Enabled() {
		return p.FS.Validate()
	}
	return nil
}

// Catalog returns the Table 1 workloads in presentation order.
func Catalog() []Params {
	const gb = 1 << 30
	return []Params{
		{Name: "sssp", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.85, OwnFrac: 0.75, SpillFrac: 0.05, ZipfS: 1.2, RunLen: 4, WriteFrac: 0.10, GapMean: 24, DepFrac: 0.50},
		{Name: "bfs", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.85, OwnFrac: 0.75, SpillFrac: 0.05, ZipfS: 1.25, RunLen: 8, WriteFrac: 0.08, GapMean: 24, DepFrac: 0.50},
		{Name: "pr", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.90, OwnFrac: 0.85, SpillFrac: 0.03, ZipfS: 1.1, RunLen: 32, WriteFrac: 0.15, GapMean: 16, DepFrac: 0.20},
		{Name: "cc", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.85, OwnFrac: 0.80, SpillFrac: 0.05, ZipfS: 1.1, RunLen: 16, WriteFrac: 0.12, GapMean: 20, DepFrac: 0.40},
		{Name: "bc", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.85, OwnFrac: 0.70, SpillFrac: 0.08, ZipfS: 1.2, RunLen: 8, WriteFrac: 0.12, GapMean: 24, DepFrac: 0.45},
		{Name: "tc", Suite: "GAPBS", Footprint: 48 * gb,
			SharedFrac: 0.80, OwnFrac: 0.80, SpillFrac: 0.05, ZipfS: 1.3, RunLen: 8, WriteFrac: 0.02, GapMean: 32, DepFrac: 0.50},
		{Name: "xsbench", Suite: "XSBench", Footprint: 42 * gb,
			SharedFrac: 0.90, OwnFrac: 0.50, SpillFrac: 0, ZipfS: 0, RunLen: 2, WriteFrac: 0.02, GapMean: 40, DepFrac: 0.35},
		{Name: "streamcluster", Suite: "PARSEC", Footprint: 18 * gb,
			SharedFrac: 0.85, OwnFrac: 0.90, SpillFrac: 0.02, ZipfS: 1.1, RunLen: 64, WriteFrac: 0.05, GapMean: 20, DepFrac: 0.05},
		{Name: "fluidanimate", Suite: "PARSEC", Footprint: 10 * gb,
			SharedFrac: 0.80, OwnFrac: 0.70, SpillFrac: 0.20, ZipfS: 0, RunLen: 16, WriteFrac: 0.30, GapMean: 24, DepFrac: 0.15},
		{Name: "canneal", Suite: "PARSEC", Footprint: 12 * gb,
			SharedFrac: 0.85, OwnFrac: 0.25, SpillFrac: 0, ZipfS: 1.1, RunLen: 1, WriteFrac: 0.25, GapMean: 32, DepFrac: 0.70},
		{Name: "bodytrack", Suite: "PARSEC", Footprint: 8 * gb,
			SharedFrac: 0.75, OwnFrac: 0.60, SpillFrac: 0.10, ZipfS: 1.15, RunLen: 8, WriteFrac: 0.20, GapMean: 32, DepFrac: 0.30},
		{Name: "tpcc", Suite: "Silo", Footprint: 24 * gb,
			SharedFrac: 0.90, OwnFrac: 0.60, SpillFrac: 0, ZipfS: 1.15, RunLen: 2, WriteFrac: 0.35, GapMean: 40, DepFrac: 0.60},
		{Name: "ycsb", Suite: "Silo", Footprint: 15 * gb,
			SharedFrac: 0.90, OwnFrac: 0.30, SpillFrac: 0, ZipfS: 1.05, RunLen: 1, WriteFrac: 0.20, GapMean: 32, DepFrac: 0.60},
	}
}

// Production returns the production-service workload family: mechanistic
// generators modelled on the traffic multi-host CXL pools actually serve
// (ROADMAP item 3) rather than Table 1 kernels. Footprints are the nominal
// deployment sizes the models are calibrated against (display only; the
// simulated heap is SharedBytes as everywhere else).
func Production() []Params {
	const gb = 1 << 30
	return []Params{
		{Name: "llmserve", Suite: "Serve", Footprint: 160 * gb, Serve: llmserve.Default()},
		{Name: "daxfs", Suite: "Serve", Footprint: 64 * gb, FS: daxfs.Default()},
	}
}

// All returns every registered workload: the Table 1 catalog followed by the
// production-service family. Name lookups and CLI listings use this; sweep
// builders that reproduce the paper's figures keep using Catalog.
func All() []Params {
	return append(Catalog(), Production()...)
}

// ByName returns the registered workload with the given name.
func ByName(name string) (Params, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists every registered workload name in order.
func Names() []string {
	var ns []string
	for _, p := range All() {
		ns = append(ns, p.Name)
	}
	return ns
}

// stackBytes is the per-core private stack window generators touch.
const stackBytes = 64 << 10

// NewReader builds the deterministic record stream for one core. Mechanistic
// presets (Serve/FS) dispatch to their generator, which derives its RNG from
// (seed, host, core) alone so validation passes can reconstruct the stream;
// statistical presets salt the per-core seed with the preset name,
// byte-identical to their pre-mechanistic encoding.
func (p Params) NewReader(am config.AddressMap, hosts, host, core int, records int64, seed int64) trace.Reader {
	if p.Serve.Enabled() {
		return llmserve.New(p.Serve, am, hosts, host, core, records, seed)
	}
	if p.FS.Enabled() {
		return daxfs.New(p.FS, am, hosts, host, core, records, seed)
	}
	if host < 0 || host >= hosts {
		panic(fmt.Sprintf("workload: host %d out of range", host))
	}
	g := &genReader{
		p:      p,
		am:     am,
		hosts:  hosts,
		host:   host,
		core:   core,
		rng:    trace.NewSource(trace.CoreSeed(seed, hash64(p.Name), host, core)),
		remain: records,
	}
	g.init()
	return g
}

func hash64(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// genReader produces the stream. Region choice → page choice (zipf or
// uniform) → line within page, with geometric sequential runs. Every
// probability is a threshold precomputed from Params, so Next draws the
// same values math/rand's Float64 comparisons would. Each call yields one
// record, so the reader needs no trace.Batch buffer.
type genReader struct {
	p     Params
	am    config.AddressMap
	hosts int
	host  int
	core  int
	rng   *trace.Source

	// Precomputed samplers over rng.
	gap, run               trace.Geometric
	write, dep, shared     trace.Bernoulli
	ownRegion, spillRegion trace.Bernoulli // one draw against both

	remain int64

	partPages int64 // pages per host partition
	allPages  int64

	zipfOwn  *trace.Zipf // over partition pages
	zipfAll  *trace.Zipf // over all pages
	stackPos int64

	// Current sequential run.
	runAddr config.Addr
	runLeft int

	emitted int64 // records emitted so far (drives phase rotation)
}

func (g *genReader) init() {
	g.allPages = g.am.SharedPages()
	g.partPages = g.allPages / int64(g.hosts)
	if g.partPages < 1 {
		g.partPages = 1
	}
	if s := g.p.ZipfS; s > 0 {
		g.zipfOwn = trace.NewZipf(g.rng, s, g.partPages)
		g.zipfAll = trace.NewZipf(g.rng, s, g.allPages)
	}
	g.gap = trace.NewGeometric(float64(g.p.GapMean))
	g.run = trace.NewGeometric(g.p.RunLen - 1)
	g.write = trace.NewBernoulli(g.p.WriteFrac)
	g.dep = trace.NewBernoulli(g.p.DepFrac)
	g.shared = trace.NewBernoulli(g.p.SharedFrac)
	g.ownRegion = trace.NewBernoulli(g.p.OwnFrac)
	g.spillRegion = trace.NewBernoulli(g.p.OwnFrac + g.p.SpillFrac)
}

// Next implements trace.Reader.
func (g *genReader) Next() (trace.Record, bool) {
	if g.remain <= 0 {
		return trace.Record{}, false
	}
	g.remain--
	g.emitted++

	gap := uint32(g.gap.Draw(g.rng))
	write := g.write.Draw(g.rng)
	dep := g.dep.Draw(g.rng)

	// Continue a sequential run if one is open. Streaming runs are
	// address-independent by construction.
	if g.runLeft > 0 {
		g.runLeft--
		g.runAddr = g.nextLine(g.runAddr)
		return trace.Record{Gap: gap, Addr: g.runAddr, Write: write}, true
	}

	if !g.shared.Draw(g.rng) {
		// Private stack reference: tight sequential reuse window.
		g.stackPos = (g.stackPos + config.LineBytes) % stackBytes
		base := config.Addr(g.core+1) * (4 << 20) // spread cores in the window
		addr := g.am.PrivateAddr(g.host, base+config.Addr(g.stackPos))
		return trace.Record{Gap: gap, Addr: addr, Write: write}, true
	}

	// Pick region, then page. Only own-partition traversals stream
	// (adjacency scans); spill and global references fetch single values —
	// a remote host reads a neighbour's vertex, not its whole page.
	// Phase rotation shifts which partition counts as "own".
	effHost := g.host
	if g.p.RotateEvery > 0 {
		effHost = (g.host + int((g.emitted-1)/g.p.RotateEvery)) % g.hosts
	}
	var page int64
	own := false
	u := g.rng.Unit()
	switch {
	case g.ownRegion.Hit(u):
		own = true
		page = int64(effHost)*g.partPages + trace.Scramble(g.rng.Pick(g.zipfOwn, g.partPages), g.partPages)
	case g.spillRegion.Hit(u):
		neighbour := (effHost + 1) % g.hosts
		page = int64(neighbour)*g.partPages + trace.Scramble(g.rng.Pick(g.zipfOwn, g.partPages), g.partPages)
	default:
		page = trace.Scramble(g.rng.Pick(g.zipfAll, g.allPages), g.allPages)
	}
	lineInPage := g.rng.Intn(config.LinesPerPage)
	addr := g.am.SharedAddr(config.Addr(page)*config.PageBytes + config.Addr(lineInPage*config.LineBytes))

	// Open a geometric sequential run from here.
	if own && g.p.RunLen > 1 {
		g.runLeft = g.run.Draw(g.rng)
		g.runAddr = addr
	}
	return trace.Record{Gap: gap, Addr: addr, Write: write, Dep: dep}, true
}

// nextLine advances one cache line, wrapping within the shared region.
func (g *genReader) nextLine(a config.Addr) config.Addr {
	n := a + config.LineBytes
	if kind, _ := g.am.Region(n); kind == config.RegionShared {
		return n
	}
	return a // stay on the last line at the region edge
}
