package conformance

import (
	"fmt"
	"math/rand"

	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/trace"
)

// TraceKind selects an adversarial interleaving family. Each family is
// built to stress a different protocol corner: the fuzzer rotates through
// all of them.
type TraceKind int

const (
	// FalseSharing hammers a handful of lines from every core with mixed
	// reads and writes: maximal invalidation, upgrade, and forward traffic.
	FalseSharing TraceKind = iota
	// EvictionStorm streams a working set far larger than the LLC: constant
	// evictions, writebacks, directory churn, and (under PIPM) incremental
	// migrations racing demand fetches.
	EvictionStorm
	// MigrationRace shifts a hot page set between hosts phase by phase,
	// driving the vote to promote, then revoke, while the losing hosts keep
	// poking the same pages mid-flight.
	MigrationRace
	// SingleWriter assigns each line one writing core (reads from anywhere):
	// conflict-free at the data level, so final images must be identical
	// across schemes — the observational-equivalence family.
	SingleWriter

	numTraceKinds
)

func (k TraceKind) String() string {
	switch k {
	case FalseSharing:
		return "false-sharing"
	case EvictionStorm:
		return "eviction-storm"
	case MigrationRace:
		return "migration-race"
	case SingleWriter:
		return "single-writer"
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// Generate builds a deterministic per-core trace set (indexed
// host*CoresPerHost+core) of the given family for the given machine shape.
// The same (seed, kind, cfg, records) always yields the same traces.
func Generate(seed int64, kind TraceKind, cfg config.Config, records int) [][]trace.Record {
	rng := rand.New(rand.NewSource(seed))
	amap := config.NewAddressMap(&cfg)
	cores := cfg.Hosts * cfg.CoresPerHost
	pages := cfg.SharedPages()
	totalLines := pages * config.LinesPerPage

	lineAddr := func(gl int64) config.Addr {
		return amap.SharedAddr(config.Addr(gl) * config.LineBytes)
	}
	rec := func(gl int64, write bool) trace.Record {
		return trace.Record{
			Gap:   uint32(rng.Intn(8) + 1),
			Addr:  lineAddr(gl),
			Write: write,
			Dep:   rng.Intn(16) == 0,
		}
	}

	out := make([][]trace.Record, cores)
	switch kind {
	case FalseSharing:
		// A few lines inside two pages, shared by everyone.
		hot := make([]int64, 4)
		for i := range hot {
			hot[i] = int64(rng.Intn(2))*config.LinesPerPage + int64(rng.Intn(config.LinesPerPage))
		}
		for c := 0; c < cores; c++ {
			for i := 0; i < records; i++ {
				out[c] = append(out[c], rec(hot[rng.Intn(len(hot))], rng.Intn(2) == 0))
			}
		}

	case EvictionStorm:
		for c := 0; c < cores; c++ {
			for i := 0; i < records; i++ {
				out[c] = append(out[c], rec(rng.Int63n(totalLines), rng.Intn(10) < 3))
			}
		}

	case MigrationRace:
		hotPages := int64(4)
		if hotPages > pages {
			hotPages = pages
		}
		phases := 4
		per := records / phases
		for c := 0; c < cores; c++ {
			host := c / cfg.CoresPerHost
			for p := 0; p < phases; p++ {
				hotHost := p % cfg.Hosts
				for i := 0; i < per; i++ {
					gl := rng.Int63n(hotPages)*config.LinesPerPage + rng.Int63n(config.LinesPerPage)
					switch {
					case host == hotHost:
						out[c] = append(out[c], rec(gl, rng.Intn(10) < 6))
					case rng.Intn(8) == 0 || pages == hotPages:
						// A losing host pokes the contested pages: vote
						// decrement or revocation pressure.
						out[c] = append(out[c], rec(gl, rng.Intn(4) == 0))
					default:
						scratch := hotPages + int64(host)%(pages-hotPages)
						gl = scratch*config.LinesPerPage + rng.Int63n(config.LinesPerPage)
						out[c] = append(out[c], rec(gl, rng.Intn(2) == 0))
					}
				}
			}
		}

	case SingleWriter:
		span := totalLines
		if span > 8*config.LinesPerPage {
			span = 8 * config.LinesPerPage
		}
		writerOf := func(gl int64) int {
			return int((uint64(gl)*2654435761 + uint64(seed)) % uint64(cores))
		}
		for c := 0; c < cores; c++ {
			for i := 0; i < records; i++ {
				gl := rng.Int63n(span)
				write := writerOf(gl) == c && rng.Intn(2) == 0
				out[c] = append(out[c], rec(gl, write))
			}
		}

	default:
		panic(fmt.Sprintf("conformance: unknown trace kind %d", kind))
	}
	return out
}

// FuzzOptions configures a fuzz campaign.
type FuzzOptions struct {
	Seed    int64
	Sets    int // trace sets to generate and run
	Records int // records per core (0 → 1200)
	// Schemes to cross-check per set. Nil → Native and PIPM on every set
	// plus one rotating scheme (HW-static and the four kernel policies), so
	// a campaign covers every tracked scheme.
	Schemes []migration.Kind
	Shrink  bool                 // minimize failing trace sets (slower)
	Config  *config.Config       // machine shape; nil → rotating small shapes
	Logf    func(string, ...any) // optional progress/diagnostic sink
}

// Failure is one fuzz finding: the inputs to reproduce it and the
// violations observed. Equivalence failures (final images differing
// between schemes on a single-writer trace) carry Scheme = the second
// scheme of the pair.
type Failure struct {
	Seed       int64
	Kind       TraceKind
	Scheme     migration.Kind
	Violations []string
	Records    int // total records, after shrinking if enabled
}

// rotating extra schemes: with Native and PIPM always on, this covers all
// tracked schemes across any 5 consecutive sets.
var extraSchemes = []migration.Kind{
	migration.HWStatic, migration.Nomad, migration.Memtis, migration.HeMem, migration.OSSkew,
}

// fuzzShapes are the machine shapes a campaign rotates through: the caches
// are tiny so evictions and conflicts happen within a short trace.
func fuzzShapes() []config.Config {
	base := config.Default()
	base.L1D = config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, Latency: sim.Nanosecond}
	base.LLC = config.CacheConfig{SizeBytes: 16 << 10, Ways: 8, Latency: 6 * sim.Nanosecond}
	base.SharedBytes = 64 << 10
	base.Kernel.Interval = 50 * sim.Microsecond

	var shapes []config.Config
	for _, hc := range [][2]int{{2, 1}, {2, 2}, {3, 1}} {
		c := base
		c.Hosts, c.CoresPerHost = hc[0], hc[1]
		shapes = append(shapes, c)
	}
	return shapes
}

// Fuzz runs a seeded campaign: Sets trace sets, each generated from a
// distinct derived seed and a rotating adversarial family, executed under
// the selected schemes with the golden model and coherence audit attached.
// Single-writer sets additionally assert final-image equivalence across
// the schemes run. It returns the number of machine runs performed and
// every (possibly shrunk) failure. A negative Sets or Records is an error.
func Fuzz(opts FuzzOptions) (runs int, failures []Failure, err error) {
	if opts.Sets < 0 || opts.Records < 0 {
		return 0, nil, fmt.Errorf("negative fuzz shape (sets %d, records %d)", opts.Sets, opts.Records)
	}
	records := opts.Records
	if records == 0 {
		records = 1200
	}
	shapes := fuzzShapes()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	for i := 0; i < opts.Sets; i++ {
		seed := opts.Seed + int64(i)
		kind := TraceKind(i % int(numTraceKinds))
		cfg := shapes[i%len(shapes)]
		if opts.Config != nil {
			cfg = *opts.Config
		}
		schemes := opts.Schemes
		if schemes == nil {
			schemes = []migration.Kind{migration.Native, migration.PIPM, extraSchemes[i%len(extraSchemes)]}
		}
		traces := Generate(seed, kind, cfg, records)

		images := make(map[migration.Kind]map[config.Addr]uint64)
		setFailed := false
		for _, scheme := range schemes {
			res, rerr := RunScheme(cfg, scheme, traces)
			if rerr != nil {
				return runs, failures, fmt.Errorf("set %d (%s, %s): %w", i, kind, scheme, rerr)
			}
			runs++
			images[scheme] = res.Image
			if !res.Failed() {
				continue
			}
			setFailed = true
			f := Failure{Seed: seed, Kind: kind, Scheme: scheme, Violations: res.Violations,
				Records: countRecords(traces)}
			if opts.Shrink {
				scheme := scheme
				shrunk := Shrink(traces, func(cand [][]trace.Record) bool {
					r, e := RunScheme(cfg, scheme, cand)
					return e == nil && r.Failed()
				})
				r, _ := RunScheme(cfg, scheme, shrunk)
				f.Violations = r.Violations
				f.Records = countRecords(shrunk)
			}
			logf("set %d (%s, %s): %d violation(s), first: %s",
				i, kind, scheme, len(f.Violations), first(f.Violations))
			failures = append(failures, f)
		}

		// Observational equivalence: single-writer traces must converge to
		// the same final image under every scheme.
		if kind == SingleWriter && !setFailed {
			ref := schemes[0]
			for _, scheme := range schemes[1:] {
				if diffs := DiffImages(images[ref], images[scheme]); len(diffs) > 0 {
					logf("set %d (%s): %s vs %s final images differ: %s",
						i, kind, ref, scheme, diffs[0])
					failures = append(failures, Failure{
						Seed: seed, Kind: kind, Scheme: scheme,
						Violations: diffs, Records: countRecords(traces),
					})
				}
			}
		}
	}
	return runs, failures, nil
}

func countRecords(traces [][]trace.Record) int {
	n := 0
	for _, t := range traces {
		n += len(t)
	}
	return n
}

func first(s []string) string {
	if len(s) == 0 {
		return "<none>"
	}
	return s[0]
}
