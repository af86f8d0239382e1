// Command experiments regenerates the paper's evaluation artefacts — Tables
// 1–2 and Figures 4–5 and 10–17 — plus the extension artefacts (cluster
// scaling, the production-service workload comparison, threshold and
// adaptivity sweeps), printed as text tables. Every simulation
// flows through the harness's run-graph engine: runs are deduplicated by
// canonical run key (full config + workload params + scheme + records +
// seed), shared across figures, and executed on a bounded worker pool.
// Artefact content on stdout is byte-identical for any -parallel value;
// progress and timing lines go to stderr.
//
// Usage:
//
//	experiments                          # everything (several minutes)
//	experiments -parallel 8              # same output, more worker slots
//	experiments -exp fig10               # one artefact
//	experiments -exp fig10,fig11 -records 100000 -workloads pr,ycsb
//	experiments -quick -json BENCH_quick.json   # record per-run timings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipm"
	"pipm/internal/harness"
)

// stderr serialises every diagnostic writer — the engine's progress lines
// (written from worker goroutines while holding the engine lock), the
// artefact timing lines and the export notes — through one mutex, so no two
// sources can interleave mid-line under -parallel.
var stderr = &syncWriter{w: os.Stderr}

type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// invocation is one parsed experiments command line.
type invocation struct {
	list func(io.Writer) // -list-schemes or -list-workloads: print and exit

	arts         []harness.Artefact // requested artefacts, in presentation order
	opt          harness.Options    // resolved sweep options, Store unset
	clusterHosts []int              // parsed -hosts ladder; empty = the default

	quick                                     bool
	jsonPath, tsPath, trPath, storeDir, pprof string
}

// parseArgs maps experiments' flags onto a harness.SweepSpec and resolves
// it, together with the artefact list and the clusterscale host ladder.
func parseArgs(fs *flag.FlagSet, args []string) (*invocation, error) {
	var (
		exps      = fs.String("exp", "all", "comma-separated artefacts: "+artefactIDs()+", or all")
		records   = fs.Int64("records", 0, "override trace records per core (0 = configuration default)")
		workloads = fs.String("workloads", "", "comma-separated workload subset (default: full catalog)")
		quick     = fs.Bool("quick", false, "use the small quick configuration")
		parallel  = fs.Int("parallel", 0, "max simulations in flight (0 = GOMAXPROCS)")
		progress  = fs.Bool("progress", false, "emit per-run progress/ETA lines on stderr")
		jsonPath  = fs.String("json", "", "write per-run timing records (BENCH_*.json) to this file")
		tsPath    = fs.String("timeseries", "", "write per-run interval time-series to this file (JSON, or CSV if the path ends in .csv)")
		trPath    = fs.String("trace", "", "write per-run protocol event traces to this file (Chrome trace-event JSON, loadable in ui.perfetto.dev)")
		sampleInt = fs.Duration("sample-interval", 10*time.Microsecond, "time-series sampling interval in simulated time (with -timeseries)")
		hosts     = fs.String("hosts", "", "comma-separated host counts for the clusterscale artefact (default 4,16,64,256)")
		storeDir  = fs.String("store", os.Getenv("PIPM_STORE"), "persistent result store directory: completed runs are written back and later sweeps load them instead of re-simulating (default $PIPM_STORE)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		listSchemes   = fs.Bool("list-schemes", false, "list registered placement schemes and exit")
		listWorkloads = fs.Bool("list-workloads", false, "list every registered workload (Table 1 catalog + production services) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	inv := &invocation{quick: *quick, jsonPath: *jsonPath,
		tsPath: *tsPath, trPath: *trPath, storeDir: *storeDir, pprof: *pprofAddr}
	switch {
	case *listSchemes:
		inv.list = harness.ListSchemes
		return inv, nil
	case *listWorkloads:
		inv.list = harness.ListWorkloads
		return inv, nil
	}

	// Reject unknown artefact names before the first simulation runs: a typo
	// in a comma list must fail immediately, not after minutes of sweeps.
	var err error
	if inv.arts, err = selectArtefacts(*exps); err != nil {
		return nil, err
	}

	// Parse -hosts up front for the same reason: a malformed or out-of-range
	// count must fail before any sweep starts.
	if *hosts != "" {
		for _, f := range strings.Split(*hosts, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || h < 1 || h > pipm.MaxHosts {
				return nil, fmt.Errorf("-hosts: %q is not a host count in 1..%d", f, pipm.MaxHosts)
			}
			inv.clusterHosts = append(inv.clusterHosts, h)
		}
	}

	// Telemetry stays disabled — and every run key unchanged — unless an
	// output flag asks for it.
	spec := harness.SweepSpec{Quick: *quick, Records: *records,
		Workloads: harness.SplitList(*workloads), Trace: *trPath != ""}
	if *tsPath != "" {
		spec.SampleInterval = sampleInt.String()
	}
	if inv.opt, _, err = spec.Resolve(); err != nil {
		return nil, err
	}
	inv.opt.Workers = *parallel
	if *progress {
		inv.opt.Progress = stderr
	}
	return inv, nil
}

func main() {
	inv, err := parseArgs(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if inv.list != nil {
		inv.list(os.Stdout)
		return
	}
	// Bind the pprof listener before any sweep starts: a bad -pprof address
	// must fail immediately, not vanish into a goroutine's log line after
	// minutes of simulation.
	if inv.pprof != "" {
		ln, err := net.Listen("tcp", inv.pprof)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		fmt.Fprintln(stderr, "experiments: pprof on http://"+ln.Addr().String())
		go func() {
			fmt.Fprintln(stderr, "experiments: pprof:", http.Serve(ln, nil))
		}()
	}

	// Probe every output path up front: an unwritable -json/-timeseries/
	// -trace destination must fail in milliseconds, not after the sweep has
	// finished and the data is about to be lost.
	for _, path := range []string{inv.jsonPath, inv.tsPath, inv.trPath} {
		if path == "" {
			continue
		}
		if err := pipm.ProbeOutputFile(path); err != nil {
			fatal(err)
		}
	}

	opt := inv.opt
	if inv.storeDir != "" {
		st, err := pipm.OpenStore(inv.storeDir)
		if err != nil {
			fatal(err)
		}
		opt.Store = st
	}
	suite := pipm.NewSuite(opt)

	// Build every requested artefact concurrently — the engine's memo and
	// singleflight keep shared runs deduplicated — but buffer each one and
	// print in presentation order, so stdout is deterministic.
	wallStart := time.Now()
	arts := make([]*artefact, len(inv.arts))
	var wg sync.WaitGroup
	for i, art := range inv.arts {
		arts[i] = &artefact{id: art.ID}
		wg.Add(1)
		go func(a *artefact) {
			defer wg.Done()
			start := time.Now()
			a.out, a.err = art.Render(suite, inv.clusterHosts)
			a.wall = time.Since(start)
		}(arts[i])
	}
	wg.Wait()
	var failed *artefact
	for _, a := range arts {
		if a.err != nil {
			failed = a
			break
		}
		fmt.Println(a.out)
		fmt.Fprintf(stderr, "[%s done in %v]\n", a.id, a.wall.Round(time.Millisecond))
	}

	// Even when an artefact failed, the runs that did complete are real
	// measurements: write the bench report (marked partial) and any requested
	// telemetry before exiting nonzero, so a long sweep's data survives one
	// broken figure builder.
	if inv.jsonPath != "" {
		if err := writeBench(inv.jsonPath, suite, opt, arts, time.Since(wallStart), inv.quick, failed != nil); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[bench report written to %s]\n", inv.jsonPath)
	}
	if inv.tsPath != "" {
		write := suite.WriteTimeSeries
		if strings.HasSuffix(inv.tsPath, ".csv") {
			write = suite.WriteTimeSeriesCSV
		}
		if err := pipm.WriteToAtomic(inv.tsPath, write); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[time-series written to %s]\n", inv.tsPath)
	}
	if inv.trPath != "" {
		if err := pipm.WriteToAtomic(inv.trPath, suite.WriteTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[trace written to %s]\n", inv.trPath)
	}
	if st, ok := suite.StoreStats(); ok {
		fmt.Fprintf(stderr, "[store %s: %d hits, %d misses, %d corrupt, %d saves]\n",
			st.Dir, st.Hits, st.Misses, st.Corrupt, st.Saves)
	}
	if failed != nil {
		fatal(fmt.Errorf("%s: %w", failed.id, failed.err))
	}
}

// artefact is one requested experiment: its id, rendered stdout content,
// wall-clock cost and error.
type artefact struct {
	id   string
	out  string
	wall time.Duration
	err  error
}

// artefactIDs lists the artefact table's ids in presentation order.
func artefactIDs() string {
	var ids []string
	for _, a := range harness.Artefacts() {
		ids = append(ids, a.ID)
	}
	return strings.Join(ids, ", ")
}

// selectArtefacts resolves the -exp flag against the artefact table,
// returning the requested artefacts in presentation order or an error
// naming the first unknown id.
func selectArtefacts(exps string) ([]harness.Artefact, error) {
	all := harness.Artefacts()
	if exps == "all" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(id)
		if !slices.ContainsFunc(all, func(a harness.Artefact) bool { return a.ID == id }) {
			return nil, fmt.Errorf("unknown experiment %q (have: %s)", id, artefactIDs())
		}
		want[id] = true
	}
	return slices.DeleteFunc(all, func(a harness.Artefact) bool { return !want[a.ID] }), nil
}

// benchReport is the -json schema: enough to track the perf trajectory of
// the experiment engine across PRs (BENCH_*.json).
type benchReport struct {
	Schema string `json:"schema"`
	// Partial marks a report written after a figure builder failed: the
	// recorded runs are valid measurements, but the artefact set — and
	// therefore the run set — is incomplete.
	Partial        bool             `json:"partial,omitempty"`
	Quick          bool             `json:"quick"`
	Parallel       int              `json:"parallel"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	RecordsPerCore int64            `json:"records_per_core"`
	Seed           int64            `json:"seed"`
	Workloads      []string         `json:"workloads"`
	Artefacts      []artefactTiming `json:"artefacts"`
	Runs           []pipm.RunStats  `json:"runs"`
	UniqueRuns     int              `json:"unique_runs"`
	MemoHits       int              `json:"memo_hits"`
	RunWallMSTotal float64          `json:"run_wall_ms_total"`
	WallMSTotal    float64          `json:"wall_ms_total"`
	// Store is the persistent result store's traffic for this invocation,
	// present only when -store (or $PIPM_STORE) attached one.
	Store *pipm.StoreStats `json:"store,omitempty"`
}

type artefactTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

func writeBench(path string, s *pipm.Suite, opt pipm.SuiteOptions,
	arts []*artefact, total time.Duration, quick, partial bool) error {
	rep := benchReport{
		Schema:         "pipm-bench/v1",
		Partial:        partial,
		Quick:          quick,
		Parallel:       opt.Workers,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		RecordsPerCore: opt.RecordsPerCore,
		Seed:           opt.Seed,
		Runs:           s.RunStats(),
		WallMSTotal:    float64(total) / float64(time.Millisecond),
	}
	for _, wl := range opt.Workloads {
		rep.Workloads = append(rep.Workloads, wl.Name)
	}
	for _, a := range arts {
		t := artefactTiming{ID: a.id, WallMS: float64(a.wall) / float64(time.Millisecond)}
		if a.err != nil {
			t.Error = a.err.Error()
		}
		rep.Artefacts = append(rep.Artefacts, t)
	}
	rep.UniqueRuns = len(rep.Runs)
	for _, r := range rep.Runs {
		rep.MemoHits += r.MemoHits
		rep.RunWallMSTotal += r.WallMS
	}
	if st, ok := s.StoreStats(); ok {
		rep.Store = &st
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return pipm.WriteFileAtomic(path, append(data, '\n'))
}

func fatal(err error) {
	fmt.Fprintln(stderr, "experiments:", err)
	os.Exit(1)
}
