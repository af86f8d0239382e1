// Command pipmsim runs one multi-host CXL-DSM simulation: a workload from
// the Table 1 catalog under one page-placement scheme, printing the metrics
// the paper's figures report.
//
// Usage:
//
//	pipmsim -workload pr -scheme pipm -records 400000
//	pipmsim -workload ycsb -scheme native -hosts 4 -cores 2 -shared 16
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
	"text/tabwriter"
	"time"

	"pipm"
	"pipm/internal/stats"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
)

func main() {
	var (
		wlName   = flag.String("workload", "pr", "workload name ("+strings.Join(pipm.WorkloadNames(), ", ")+")")
		scheme   = flag.String("scheme", "pipm", "placement scheme ("+strings.Join(pipm.SchemeNames(), ", ")+")")
		records  = flag.Int64("records", 400_000, "trace records per core")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		hosts    = flag.Int("hosts", 0, "override host count (0 = config default)")
		cores    = flag.Int("cores", 0, "override cores per host (0 = config default)")
		shared   = flag.Int64("shared", 0, "override shared heap size in MiB (0 = config default)")
		compare  = flag.Bool("compare", false, "also run the native baseline and report speedup")
		tracedir = flag.String("tracedir", "", "replay binary traces (h<h>c<c>.trc, from tracegen -outdir) instead of generating")

		tsPath    = flag.String("timeseries", "", "write the run's interval time-series to this file (JSON, or CSV if the path ends in .csv)")
		trPath    = flag.String("trace", "", "write the run's protocol event trace to this file (Chrome trace-event JSON, loadable in ui.perfetto.dev)")
		sampleInt = flag.Duration("sample-interval", 10*time.Microsecond, "time-series sampling interval in simulated time (with -timeseries)")
		storeDir  = flag.String("store", os.Getenv("PIPM_STORE"), "persistent result store directory: a previously simulated identical run is loaded instead of re-simulated (default $PIPM_STORE; ignored with -tracedir)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		listSchemes   = flag.Bool("list-schemes", false, "list registered placement schemes and exit")
		listWorkloads = flag.Bool("list-workloads", false, "list every registered workload (Table 1 catalog + production services) and exit")
	)
	flag.Parse()

	if *listSchemes {
		printSchemes(os.Stdout)
		return
	}
	if *listWorkloads {
		printWorkloads(os.Stdout)
		return
	}

	// Bind the pprof listener before the run starts: a bad -pprof address
	// must fail immediately, not vanish into a goroutine's log line.
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		go func() {
			fmt.Fprintln(os.Stderr, "pipmsim: pprof:", http.Serve(ln, nil))
		}()
	}

	// Fail fast on unwritable export paths — before the simulation, not
	// after it.
	for _, path := range []string{*tsPath, *trPath} {
		if path != "" {
			if err := pipm.ProbeOutputFile(path); err != nil {
				fatal(err)
			}
		}
	}

	// Size overrides fail fast: a negative count is a typo, not a request
	// for the default, and a zero record budget simulates nothing.
	if *records < 1 {
		fatal(fmt.Errorf("-records must be ≥ 1, got %d", *records))
	}
	for _, o := range []struct {
		name string
		v    int64
	}{{"hosts", int64(*hosts)}, {"cores", int64(*cores)}, {"shared", *shared}} {
		if o.v < 0 {
			fatal(fmt.Errorf("-%s must be ≥ 0 (0 = config default), got %d", o.name, o.v))
		}
	}

	wl, err := pipm.WorkloadByName(*wlName)
	if err != nil {
		fatal(err)
	}
	k, err := pipm.ParseScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	cfg := pipm.ScaledConfig()
	if *hosts > 0 {
		// ScaleForHosts also widens the directory slice count with the
		// cluster, matching the harness's clusterscale configs.
		cfg = pipm.ScaleForHosts(cfg, *hosts)
	}
	if *cores > 0 {
		cfg.CoresPerHost = *cores
	}
	if *shared > 0 {
		cfg.SharedBytes = *shared << 20
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	var topt pipm.TelemetryOptions
	if *tsPath != "" {
		if *sampleInt <= 0 {
			fatal(fmt.Errorf("-sample-interval must be positive, got %v", *sampleInt))
		}
		topt.SampleInterval = pipm.Time(sampleInt.Nanoseconds()) * pipm.Nanosecond
	}
	if *trPath != "" {
		topt.Trace = true
	}

	var res pipm.Result
	var tout *pipm.TelemetryOutput
	var err2 error
	switch {
	case *tracedir != "":
		// Replayed traces have no canonical run key (the trace files are not
		// part of any hashable recipe), so the store never applies here.
		res, tout, err2 = runFromTraces(cfg, k, *tracedir, topt)
	case *storeDir != "":
		// Route through the store-backed runner: an identical earlier run —
		// from this tool or a whole experiments sweep — answers from disk.
		var st *pipm.ResultStore
		if st, err2 = pipm.OpenStore(*storeDir); err2 == nil {
			runner := pipm.NewRunner(pipm.SuiteOptions{Store: st})
			req := pipm.RunRequest{Cfg: cfg, WL: wl, Scheme: k, Records: *records, Seed: *seed,
				Telemetry: topt}
			res, err2 = runner.Get(req)
			tout = runner.Telemetry(req)
			if stats, ok := runner.StoreStats(); ok && err2 == nil {
				if stats.Hits > 0 {
					fmt.Fprintf(os.Stderr, "[store hit: loaded from %s]\n", stats.Dir)
				}
			}
		}
	default:
		res, tout, err2 = pipm.RunWithOptions(cfg, wl, k, *records, *seed,
			pipm.RunOptions{Telemetry: topt})
	}
	if err2 != nil {
		fatal(err2)
	}
	if err := exportTelemetry(tout, wl.Name, k, *tsPath, *trPath); err != nil {
		fatal(err)
	}
	fmt.Printf("workload        %s (%s)\n", wl.Name, wl.Suite)
	fmt.Printf("scheme          %v\n", k)
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

	if *compare && k != pipm.Native {
		nat, err := pipm.Run(cfg, wl, pipm.Native, *records, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("speedup         %.2fx over native (%v)\n", pipm.Speedup(res, nat), nat.ExecTime)
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
		if err := writeTo(tsPath, write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[time-series written to %s]\n", tsPath)
	}
	if trPath != "" {
		if err := writeTo(trPath, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, runs) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace written to %s]\n", trPath)
	}
	return nil
}

// writeTo streams one export into path atomically (temp file + rename), so
// a failed export never clobbers a previous good file.
func writeTo(path string, write func(io.Writer) error) error {
	return pipm.WriteToAtomic(path, write)
}

// runFromTraces replays tracegen -outdir output through the machine.
func runFromTraces(cfg pipm.Config, k pipm.Scheme, dir string, topt pipm.TelemetryOptions) (pipm.Result, *pipm.TelemetryOutput, error) {
	m, err := pipm.NewMachine(cfg, k)
	if err != nil {
		return pipm.Result{}, nil, err
	}
	if err := m.EnableTelemetry(topt); err != nil {
		return pipm.Result{}, nil, err
	}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			name := filepath.Join(dir, fmt.Sprintf("h%dc%d.trc", h, c))
			f, err := os.Open(name)
			if err != nil {
				return pipm.Result{}, nil, err
			}
			files = append(files, f)
			r, err := trace.NewBinaryReader(f)
			if err != nil {
				return pipm.Result{}, nil, fmt.Errorf("%s: %w", name, err)
			}
			m.SetTrace(h, c, r)
		}
	}
	if err := m.Run(); err != nil {
		return pipm.Result{}, nil, err
	}
	col := m.Stats()
	return pipm.Result{
		Scheme:         k,
		ExecTime:       m.ExecTime(),
		IPC:            m.IPC(),
		LocalHitRate:   col.LocalHitRate(),
		InterStallFrac: col.StallFraction(stats.ClassInterHost),
		MgmtStallFrac:  col.MgmtFraction(),
		TransferFrac:   col.TransferFraction(),
		HarmfulFrac:    m.HarmfulFraction(),
		Promotions:     col.Promotions,
		Demotions:      col.Demotions,
		LinesMoved:     col.LinesMoved,
		BytesMoved:     col.BytesMoved,
	}, m.TelemetryOutput(), nil
}

// printSchemes lists the scheme registry (the same source -scheme parses).
func printSchemes(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tFAMILY\tDESCRIPTION")
	for _, s := range pipm.RegisteredSchemes() {
		fmt.Fprintf(tw, "%s\t%v\t%s\n", s.Name, s.Family, s.Desc)
	}
	tw.Flush()
}

// printWorkloads lists every workload the -workload flag accepts: the
// Table 1 statistical catalog plus the mechanistic production-service
// generators, whose mix comes from their serving/filesystem loop rather
// than SharedFrac/WriteFrac knobs.
func printWorkloads(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tSUITE\tFOOTPRINT\tSHARED%\tWRITE%")
	for _, wl := range pipm.AllWorkloads() {
		if wl.Mechanistic() {
			fmt.Fprintf(tw, "%s\t%s\t%dMB\tmechanistic\t-\n",
				wl.Name, wl.Suite, wl.Footprint>>20)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%dMB\t%.0f%%\t%.0f%%\n",
			wl.Name, wl.Suite, wl.Footprint>>20, 100*wl.SharedFrac, 100*wl.WriteFrac)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipmsim:", err)
	os.Exit(1)
}
