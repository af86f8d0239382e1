// Command pipmsim runs one multi-host CXL-DSM simulation: a workload from
// the Table 1 catalog under one page-placement scheme, printing the metrics
// the paper's figures report.
//
// Usage:
//
//	pipmsim -workload pr -scheme pipm -records 400000
//	pipmsim -workload ycsb -scheme native -hosts 4 -cores 2 -shared 16
//	pipmsim -scheme pipm -tracedir trc    # replay tracegen -outdir trc
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pipm"
	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/store"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
)

// invocation is one parsed pipmsim command line.
type invocation struct {
	list func(io.Writer) // -list-schemes or -list-workloads: print and exit

	reqs []harness.RunRequest // the run, then the native baseline with -compare

	tracedir, tsPath, trPath, storeDir, pprofAddr string
}

// parseArgs maps pipmsim's flags onto a harness.SweepSpec of one workload
// and one scheme and resolves it.
func parseArgs(fs *flag.FlagSet, args []string) (*invocation, error) {
	var (
		wlName   = fs.String("workload", "pr", "workload name ("+strings.Join(pipm.WorkloadNames(), ", ")+")")
		scheme   = fs.String("scheme", "pipm", "placement scheme ("+strings.Join(pipm.SchemeNames(), ", ")+")")
		records  = fs.Int64("records", 400_000, "trace records per core")
		seed     = fs.Int64("seed", 1, "workload generator seed")
		hosts    = fs.Int("hosts", 0, "override host count (0 = config default)")
		cores    = fs.Int("cores", 0, "override cores per host (0 = config default)")
		shared   = fs.Int64("shared", 0, "override shared heap size in MiB (0 = config default)")
		compare  = fs.Bool("compare", false, "also run the native baseline and report speedup")
		tracedir = fs.String("tracedir", "", "replay binary traces (h<h>c<c>.trc, from tracegen -outdir) instead of generating")

		tsPath    = fs.String("timeseries", "", "write the run's interval time-series to this file (JSON, or CSV if the path ends in .csv)")
		trPath    = fs.String("trace", "", "write the run's protocol event trace to this file (Chrome trace-event JSON, loadable in ui.perfetto.dev)")
		sampleInt = fs.Duration("sample-interval", 10*time.Microsecond, "time-series sampling interval in simulated time (with -timeseries)")
		storeDir  = fs.String("store", os.Getenv("PIPM_STORE"), "persistent result store directory: a previously simulated identical run is loaded instead of re-simulated (default $PIPM_STORE; ignored with -tracedir)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		listSchemes   = fs.Bool("list-schemes", false, "list registered placement schemes and exit")
		listWorkloads = fs.Bool("list-workloads", false, "list every registered workload (Table 1 catalog + production services) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	inv := &invocation{tracedir: *tracedir, tsPath: *tsPath, trPath: *trPath,
		storeDir: *storeDir, pprofAddr: *pprofAddr}
	switch {
	case *listSchemes:
		inv.list = harness.ListSchemes
		return inv, nil
	case *listWorkloads:
		inv.list = harness.ListWorkloads
		return inv, nil
	}

	// A zero budget simulates nothing: unlike the sweep CLIs, pipmsim has no
	// "0 = default" record count. Negative values fail in the resolver.
	if *records == 0 {
		return nil, fmt.Errorf("-records must be ≥ 1, got 0")
	}
	if *scheme == "all" {
		return nil, fmt.Errorf("-scheme names one scheme, got %q", *scheme)
	}
	spec := harness.SweepSpec{
		Workloads: []string{*wlName}, Schemes: []string{*scheme}, Records: *records,
		Hosts: *hosts, Cores: *cores, SharedMiB: *shared, Trace: *trPath != "",
	}
	if *tsPath != "" {
		spec.SampleInterval = sampleInt.String()
	}
	opt, kinds, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	// The spec reads seed 0 as "the default"; pipmsim's -seed 0 is seed 0.
	opt.Seed = *seed
	inv.reqs = []harness.RunRequest{opt.Request(opt.Workloads[0], kinds[0])}
	if *compare && kinds[0] != migration.Native {
		nat := inv.reqs[0]
		nat.Scheme, nat.Telemetry = migration.Native, telemetry.Options{}
		inv.reqs = append(inv.reqs, nat)
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

	// Bind the pprof listener before the run starts: a bad -pprof address
	// must fail immediately, not vanish into a goroutine's log line.
	if inv.pprofAddr != "" {
		ln, err := net.Listen("tcp", inv.pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		go func() {
			fmt.Fprintln(os.Stderr, "pipmsim: pprof:", http.Serve(ln, nil))
		}()
	}

	// Fail fast on unwritable export paths — before the simulation, not
	// after it.
	for _, path := range []string{inv.tsPath, inv.trPath} {
		if path != "" {
			if err := pipm.ProbeOutputFile(path); err != nil {
				fatal(err)
			}
		}
	}

	// One runner executes the run and the -compare baseline; a store, when
	// given, lets an identical earlier run — from this tool or a whole
	// experiments sweep — answer from disk.
	var st *store.Store
	if inv.storeDir != "" && inv.tracedir == "" {
		if st, err = store.Open(inv.storeDir); err != nil {
			fatal(err)
		}
	}
	runner := harness.NewRunner(harness.Options{Store: st})
	req := inv.reqs[0]
	var res harness.Result
	var tout *telemetry.Output
	if inv.tracedir != "" {
		// Replayed traces have no canonical run key (the trace files are not
		// part of any hashable recipe), so they bypass the runner and store.
		res, tout, err = runFromTraces(req, inv.tracedir)
	} else {
		res, err = runner.Get(req)
		tout = runner.Telemetry(req)
		if stats, ok := runner.StoreStats(); ok && err == nil && stats.Hits > 0 {
			fmt.Fprintf(os.Stderr, "[store hit: loaded from %s]\n", stats.Dir)
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := exportTelemetry(tout, res.Workload, req.Scheme, inv.tsPath, inv.trPath); err != nil {
		fatal(err)
	}
	if inv.tracedir != "" {
		fmt.Printf("workload        %s (replayed traces)\n", inv.tracedir)
	} else {
		fmt.Printf("workload        %s (%s)\n", req.WL.Name, req.WL.Suite)
	}
	fmt.Printf("scheme          %v\n", req.Scheme)
	fmt.Printf("exec time       %v\n", res.ExecTime)
	fmt.Printf("IPC             %.3f\n", res.IPC)
	fmt.Printf("local hit rate  %.1f%%\n", 100*res.LocalHitRate)
	fmt.Printf("inter-host stall %.2f%% of core time\n", 100*res.InterStallFrac)
	fmt.Printf("mgmt stall      %.2f%%   transfer stall %.2f%%\n", 100*res.MgmtStallFrac, 100*res.TransferFrac)
	fmt.Printf("promotions      %d   demotions %d   lines moved %d\n", res.Promotions, res.Demotions, res.LinesMoved)
	fmt.Printf("footprint       %.1f%% pages, %.1f%% lines (per host avg)\n",
		100*res.PageFootprintFrac, 100*res.LineFootprintFrac)
	if res.HarmfulFrac > 0 {
		fmt.Printf("harmful migs    %.1f%%\n", 100*res.HarmfulFrac)
	}
	if res.LocalRemapHitRate > 0 || res.GlobalRemapHitRate > 0 {
		fmt.Printf("remap caches    local %.1f%%, global %.1f%% hit\n",
			100*res.LocalRemapHitRate, 100*res.GlobalRemapHitRate)
	}

	if len(inv.reqs) > 1 {
		nat, err := runner.Get(inv.reqs[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("speedup         %.2fx over native (%v)\n", harness.Speedup(res, nat), nat.ExecTime)
	}
}

// exportTelemetry writes whichever telemetry files were requested. tout is
// nil when telemetry was disabled.
func exportTelemetry(tout *pipm.TelemetryOutput, wl string, k pipm.Scheme, tsPath, trPath string) error {
	if tout == nil {
		return nil
	}
	runs := []telemetry.LabeledOutput{{Label: wl + "/" + k.String(), Output: tout}}
	if tsPath != "" {
		write := func(w io.Writer) error { return telemetry.WriteTimeSeries(w, runs) }
		if strings.HasSuffix(tsPath, ".csv") {
			write = func(w io.Writer) error { return telemetry.WriteTimeSeriesCSV(w, runs) }
		}
		if err := pipm.WriteToAtomic(tsPath, write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[time-series written to %s]\n", tsPath)
	}
	if trPath != "" {
		if err := pipm.WriteToAtomic(trPath, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, runs) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace written to %s]\n", trPath)
	}
	return nil
}

// runFromTraces replays tracegen -outdir output through req's machine; the
// traces stand in for req's generators, so req.Records and req.Seed do not
// apply. The Result is labelled with the trace directory. A trace that
// fails to decode, or holds an address outside its host's private window
// and the shared pool, fails the run with the file named.
func runFromTraces(req harness.RunRequest, dir string) (harness.Result, *telemetry.Output, error) {
	m, err := pipm.NewMachine(req.Cfg, req.Scheme)
	if err != nil {
		return harness.Result{}, nil, err
	}
	if err := m.EnableTelemetry(req.Telemetry); err != nil {
		return harness.Result{}, nil, err
	}
	var files []*traceFile
	defer func() {
		for _, f := range files {
			f.f.Close()
		}
	}()
	for h := 0; h < req.Cfg.Hosts; h++ {
		for c := 0; c < req.Cfg.CoresPerHost; c++ {
			name := filepath.Join(dir, fmt.Sprintf("h%dc%d.trc", h, c))
			f, err := os.Open(name)
			if err != nil {
				return harness.Result{}, nil, err
			}
			tf := &traceFile{name: name, f: f, am: m.AddressMap(), host: h}
			files = append(files, tf)
			if tf.r, err = trace.NewBinaryReader(f); err != nil {
				return harness.Result{}, nil, fmt.Errorf("%s: %w", name, err)
			}
			m.SetTrace(h, c, tf)
		}
	}
	if err := m.Run(); err != nil {
		return harness.Result{}, nil, err
	}
	for _, tf := range files {
		if err := tf.Err(); err != nil {
			return harness.Result{}, nil, err
		}
	}
	return harness.Collect(m, dir), m.TelemetryOutput(), nil
}

// traceFile replays one core's trace file. It ends the stream at the first
// record whose address lies outside its host's private window and the
// shared pool; Err reports that or a decoding error, with the file named.
type traceFile struct {
	name string
	f    *os.File
	r    *trace.BinaryReader
	am   config.AddressMap
	host int
	bad  error
}

// Next implements trace.Reader.
func (t *traceFile) Next() (trace.Record, bool) {
	if t.bad != nil {
		return trace.Record{}, false
	}
	rec, ok := t.r.Next()
	if !ok {
		return rec, false
	}
	if kind, h := t.am.Region(rec.Addr); kind == config.RegionInvalid || kind == config.RegionPrivate && h != t.host {
		t.bad = fmt.Errorf("address %#x is outside host %d's private window and the shared pool", uint64(rec.Addr), t.host)
		return trace.Record{}, false
	}
	return rec, true
}

// Err returns why the stream ended early, or nil after a clean end.
func (t *traceFile) Err() error {
	err := t.bad
	if err == nil {
		err = t.r.Err()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipmsim:", err)
	os.Exit(1)
}
