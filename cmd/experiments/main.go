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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"pipm"
)

var order = []string{
	"table1", "table2", "fig4", "fig5", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "fig17", "scalability",
	"clusterscale", "serve", "threshold", "adaptivity", "protocheck",
}

// clusterHosts is the parsed -hosts sweep for the clusterscale artefact;
// empty means the default 4/16/64/256 ladder.
var clusterHosts []int

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

func main() {
	var (
		exps      = flag.String("exp", "all", "comma-separated artefacts: "+strings.Join(order, ", ")+", or all")
		records   = flag.Int64("records", 0, "override trace records per core (0 = configuration default)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: full catalog)")
		quick     = flag.Bool("quick", false, "use the small quick configuration")
		parallel  = flag.Int("parallel", 0, "max simulations in flight (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "emit per-run progress/ETA lines on stderr")
		jsonPath  = flag.String("json", "", "write per-run timing records (BENCH_*.json) to this file")
		tsPath    = flag.String("timeseries", "", "write per-run interval time-series to this file (JSON, or CSV if the path ends in .csv)")
		trPath    = flag.String("trace", "", "write per-run protocol event traces to this file (Chrome trace-event JSON, loadable in ui.perfetto.dev)")
		sampleInt = flag.Duration("sample-interval", 10*time.Microsecond, "time-series sampling interval in simulated time (with -timeseries)")
		hosts     = flag.String("hosts", "", "comma-separated host counts for the clusterscale artefact (default 4,16,64,256)")
		storeDir  = flag.String("store", os.Getenv("PIPM_STORE"), "persistent result store directory: completed runs are written back and later sweeps load them instead of re-simulating (default $PIPM_STORE)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		listSchemes   = flag.Bool("list-schemes", false, "list registered placement schemes and exit")
		listWorkloads = flag.Bool("list-workloads", false, "list the Table 1 workload catalog and exit")
	)
	flag.Parse()

	if *listSchemes {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NAME\tFAMILY\tDESCRIPTION")
		for _, s := range pipm.RegisteredSchemes() {
			fmt.Fprintf(tw, "%s\t%v\t%s\n", s.Name, s.Family, s.Desc)
		}
		tw.Flush()
		return
	}
	if *listWorkloads {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NAME\tSUITE\tFOOTPRINT\tSHARED%\tWRITE%")
		for _, wl := range pipm.AllWorkloads() {
			if wl.Mechanistic() {
				// Production-service generators derive their mix from the
				// serving/filesystem loop, not from SharedFrac/WriteFrac.
				fmt.Fprintf(tw, "%s\t%s\t%dMB\tmechanistic\t-\n",
					wl.Name, wl.Suite, wl.Footprint>>20)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%dMB\t%.0f%%\t%.0f%%\n",
				wl.Name, wl.Suite, wl.Footprint>>20, 100*wl.SharedFrac, 100*wl.WriteFrac)
		}
		tw.Flush()
		return
	}

	// Bind the pprof listener before any sweep starts: a bad -pprof address
	// must fail immediately, not vanish into a goroutine's log line after
	// minutes of simulation.
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		fmt.Fprintln(stderr, "experiments: pprof on http://"+ln.Addr().String())
		go func() {
			fmt.Fprintln(stderr, "experiments: pprof:", http.Serve(ln, nil))
		}()
	}

	// Reject unknown artefact names before the first simulation runs: a typo
	// in a comma list must fail immediately, not after minutes of sweeps.
	ids, err := selectArtefacts(*exps)
	if err != nil {
		fatal(err)
	}

	// Check -records up front for the same reason: a negative budget is a
	// typo, not a request for the default.
	if *records < 0 {
		fatal(fmt.Errorf("-records must be ≥ 0 (0 = configuration default), got %d", *records))
	}

	// Parse -hosts up front for the same reason: a malformed or out-of-range
	// count must fail before any sweep starts.
	if *hosts != "" {
		for _, f := range strings.Split(*hosts, ",") {
			var h int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &h); err != nil || h < 1 || h > pipm.MaxHosts {
				fatal(fmt.Errorf("-hosts: %q is not a host count in 1..%d", f, pipm.MaxHosts))
			}
			clusterHosts = append(clusterHosts, h)
		}
	}

	// Probe every output path up front for the same reason: an unwritable
	// -json/-timeseries/-trace destination must fail in milliseconds, not
	// after the sweep has finished and the data is about to be lost.
	for _, path := range []string{*jsonPath, *tsPath, *trPath} {
		if path == "" {
			continue
		}
		if err := pipm.ProbeOutputFile(path); err != nil {
			fatal(err)
		}
	}

	opt := pipm.DefaultSuiteOptions()
	if *quick {
		opt = pipm.QuickSuiteOptions()
	}
	if *records > 0 {
		opt.RecordsPerCore = *records
	}
	if *workloads != "" {
		opt.Workloads = opt.Workloads[:0]
		for _, name := range strings.Split(*workloads, ",") {
			wl, err := pipm.WorkloadByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			opt.Workloads = append(opt.Workloads, wl)
		}
	}
	opt.Workers = *parallel
	if *progress {
		opt.Progress = stderr
	}
	// Telemetry stays disabled — and every run key unchanged — unless an
	// output flag asks for it.
	if *tsPath != "" {
		if *sampleInt <= 0 {
			fatal(fmt.Errorf("-sample-interval must be positive, got %v", *sampleInt))
		}
		opt.Telemetry.SampleInterval = pipm.Time(sampleInt.Nanoseconds()) * pipm.Nanosecond
	}
	if *trPath != "" {
		opt.Telemetry.Trace = true
	}
	if *storeDir != "" {
		st, err := pipm.OpenStore(*storeDir)
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
	arts := make([]*artefact, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		arts[i] = &artefact{id: id}
		wg.Add(1)
		go func(a *artefact) {
			defer wg.Done()
			start := time.Now()
			a.err = run(&a.out, suite, opt, a.id)
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
		os.Stdout.Write(a.out.Bytes())
		fmt.Println()
		fmt.Fprintf(stderr, "[%s done in %v]\n", a.id, a.wall.Round(time.Millisecond))
	}

	// Even when an artefact failed, the runs that did complete are real
	// measurements: write the bench report (marked partial) and any requested
	// telemetry before exiting nonzero, so a long sweep's data survives one
	// broken figure builder.
	if *jsonPath != "" {
		if err := writeBench(*jsonPath, suite, opt, arts, time.Since(wallStart), *parallel, *quick, failed != nil); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[bench report written to %s]\n", *jsonPath)
	}
	if *tsPath != "" {
		write := suite.WriteTimeSeries
		if strings.HasSuffix(*tsPath, ".csv") {
			write = suite.WriteTimeSeriesCSV
		}
		if err := writeTo(*tsPath, write); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[time-series written to %s]\n", *tsPath)
	}
	if *trPath != "" {
		if err := writeTo(*trPath, suite.WriteTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stderr, "[trace written to %s]\n", *trPath)
	}
	if st, ok := suite.StoreStats(); ok {
		fmt.Fprintf(stderr, "[store %s: %d hits, %d misses, %d corrupt, %d saves]\n",
			st.Dir, st.Hits, st.Misses, st.Corrupt, st.Saves)
	}
	if failed != nil {
		fatal(fmt.Errorf("%s: %w", failed.id, failed.err))
	}
}

// writeTo streams one export into path via a temp file + rename, so a crash
// or a failed export never leaves a truncated artefact where a previous good
// one stood.
func writeTo(path string, write func(io.Writer) error) error {
	return pipm.WriteToAtomic(path, write)
}

// artefact is one requested experiment: its id, buffered stdout content,
// wall-clock cost and error.
type artefact struct {
	id   string
	out  bytes.Buffer
	wall time.Duration
	err  error
}

// selectArtefacts resolves the -exp flag against the known artefact order,
// returning the requested ids in presentation order or an error naming the
// first unknown id.
func selectArtefacts(exps string) ([]string, error) {
	known := map[string]bool{}
	for _, id := range order {
		known[id] = true
	}
	if exps == "all" {
		return order, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(order, ", "))
		}
		want[id] = true
	}
	var ids []string
	for _, id := range order {
		if want[id] {
			ids = append(ids, id)
		}
	}
	return ids, nil
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
	arts []*artefact, total time.Duration, parallel int, quick, partial bool) error {
	rep := benchReport{
		Schema:         "pipm-bench/v1",
		Partial:        partial,
		Quick:          quick,
		Parallel:       parallel,
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

func run(w io.Writer, s *pipm.Suite, opt pipm.SuiteOptions, id string) error {
	printT := func(t pipm.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprint(w, t.Format())
		return nil
	}
	switch id {
	case "table1":
		fmt.Fprint(w, pipm.Table1())
		return nil
	case "table2":
		fmt.Fprint(w, pipm.Table2(opt.Cfg))
		return nil
	case "fig4":
		tabs, err := s.Fig4()
		if err != nil {
			return err
		}
		for _, t := range tabs {
			fmt.Fprint(w, t.Format())
		}
		return nil
	case "fig5":
		return printT(s.Fig5())
	case "fig10":
		return printT(s.Fig10())
	case "fig11":
		return printT(s.Fig11())
	case "fig12":
		return printT(s.Fig12())
	case "fig13":
		return printT(s.Fig13())
	case "fig14":
		return printT(s.Fig14())
	case "fig15":
		return printT(s.Fig15())
	case "fig16":
		return printT(s.Fig16())
	case "fig17":
		return printT(s.Fig17())
	case "scalability":
		return printT(s.Scalability(nil))
	case "clusterscale":
		tabs, err := s.ClusterScale(clusterHosts)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			fmt.Fprint(w, t.Format())
		}
		return nil
	case "serve":
		tabs, err := s.ServeComparison(clusterHosts)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			fmt.Fprint(w, t.Format())
		}
		return nil
	case "threshold":
		return printT(s.ThresholdSensitivity(nil))
	case "adaptivity":
		return printT(s.Adaptivity())
	case "protocheck":
		for _, hosts := range []int{2, 3} {
			for _, ext := range []bool{false, true} {
				name := "MSI"
				if ext {
					name = "MSI+PIPM"
				}
				res, v := pipm.VerifyCoherence(hosts, ext)
				if v != nil {
					return fmt.Errorf("%s/%d hosts: %v", name, hosts, v)
				}
				fmt.Fprintf(w, "%-9s %d hosts: %d states, %d transitions, SWMR+SC hold, deadlock-free\n",
					name, hosts, res.States, res.Transitions)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", id)
}

func fatal(err error) {
	fmt.Fprintln(stderr, "experiments:", err)
	os.Exit(1)
}
