// Command tracegen generates a synthetic workload trace for one core and
// either writes it in the binary trace format or prints stream statistics.
// Useful for inspecting what the workload models emit and for feeding the
// simulator externally captured traces.
//
// Usage:
//
//	tracegen -workload ycsb -host 1 -core 0 -records 100000 -out ycsb.trc
//	tracegen -workload pr -stats
//	tracegen -workload pr -records 20000 -outdir trc   # for pipmsim -tracedir
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pipm"
	"pipm/internal/config"
	"pipm/internal/trace"
	"pipm/internal/workload"
)

// invocation is one parsed tracegen command line.
type invocation struct {
	wl            workload.Params
	host, core    int
	records, seed int64
	out, outdir   string
	stats         bool
	cfg           config.Config
}

// parseArgs parses tracegen's flags and checks the stream coordinates
// against the configuration the simulator replays traces on.
func parseArgs(fs *flag.FlagSet, args []string) (*invocation, error) {
	var (
		wlName  = fs.String("workload", "pr", "workload name")
		host    = fs.Int("host", 0, "host the stream belongs to")
		core    = fs.Int("core", 0, "core within the host")
		records = fs.Int64("records", 100_000, "records to generate per core (≥ 0)")
		seed    = fs.Int64("seed", 1, "generator seed")
		out     = fs.String("out", "", "write binary trace to this file")
		outdir  = fs.String("outdir", "", "write one trace per core (h<h>c<c>.trc) into this directory")
		stats   = fs.Bool("stats", false, "print stream statistics instead of writing")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	wl, err := workload.ByName(*wlName)
	if err != nil {
		return nil, err
	}
	cfg := pipm.ScaledConfig()
	switch {
	case *host < 0 || *host >= cfg.Hosts:
		return nil, fmt.Errorf("-host %d out of range: the configuration has hosts 0..%d", *host, cfg.Hosts-1)
	case *core < 0 || *core >= cfg.CoresPerHost:
		return nil, fmt.Errorf("-core %d out of range: each host has cores 0..%d", *core, cfg.CoresPerHost-1)
	case *records < 0:
		return nil, fmt.Errorf("-records must be ≥ 0, got %d", *records)
	}
	return &invocation{wl: wl, host: *host, core: *core, records: *records, seed: *seed,
		out: *out, outdir: *outdir, stats: *stats, cfg: cfg}, nil
}

func main() {
	inv, err := parseArgs(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fatal(err)
	}
	cfg, wl := inv.cfg, inv.wl
	am := config.NewAddressMap(&cfg)
	r := wl.NewReader(am, cfg.Hosts, inv.host, inv.core, inv.records, inv.seed)

	switch {
	case inv.outdir != "":
		if err := os.MkdirAll(inv.outdir, 0o755); err != nil {
			fatal(err)
		}
		total := int64(0)
		for h := 0; h < cfg.Hosts; h++ {
			for c := 0; c < cfg.CoresPerHost; c++ {
				name := filepath.Join(inv.outdir, fmt.Sprintf("h%dc%d.trc", h, c))
				n, err := writeTrace(name, wl.NewReader(am, cfg.Hosts, h, c, inv.records, inv.seed))
				if err != nil {
					fatal(err)
				}
				total += n
			}
		}
		fmt.Printf("wrote %d records across %d trace files to %s\n",
			total, cfg.Hosts*cfg.CoresPerHost, inv.outdir)
	case inv.stats:
		s := trace.Collect(r, &am)
		fmt.Printf("workload      %s (host %d core %d, seed %d)\n", wl.Name, inv.host, inv.core, inv.seed)
		fmt.Printf("records       %d\n", s.Records)
		fmt.Printf("instructions  %d\n", s.Instructions)
		fmt.Printf("reads/writes  %d / %d (%.1f%% writes)\n", s.Reads, s.Writes, 100*float64(s.Writes)/float64(max(s.Records, 1)))
		fmt.Printf("shared refs   %d (%.1f%%)\n", s.SharedRefs, 100*float64(s.SharedRefs)/float64(max(s.Records, 1)))
		fmt.Printf("unique pages  %d\n", s.UniquePages)
		fmt.Printf("unique lines  %d\n", s.UniqueLines)
	case inv.out != "":
		n, err := writeTrace(inv.out, r)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n", n, inv.out)
	default:
		fatal(fmt.Errorf("pass -out FILE, -outdir DIR, or -stats"))
	}
}

// writeTrace drains r into a binary trace file and returns the record count.
// The file appears only once complete: a crash cannot leave a stream that
// ends on a record boundary and decodes as a clean, shorter trace.
func writeTrace(name string, r trace.Reader) (int64, error) {
	var n int64
	err := pipm.WriteToAtomic(name, func(f io.Writer) error {
		w, err := trace.NewWriter(f)
		if err != nil {
			return err
		}
		for rec, ok := r.Next(); ok; rec, ok = r.Next() {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		n = w.Count()
		return w.Flush()
	})
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
