// Command perfbench is the repository benchmark. It runs one golden-checked
// simulation sweep after another on a single goroutine for a fixed wall
// time, times the public machine, workload and harness calls from outside,
// and prints one JSON result line.
//
// Usage, from the repository root:
//
//	perfbench --workload quick-4h --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (nominal_records_per_s,
// setup_s, peak_rss_mb); with --trace 1 the per-layer ledger. Times are
// scaled to a nominal host speed measured by a reference kernel before each
// Run (calibrate.go). README.md in this
// directory describes the workloads, the estimators and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", goldenSeed, "workload seed; seed 1 is checked against the golden digests")
	seconds := flag.Int("seconds", 30, "wall seconds to keep starting sweeps")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer ledger")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds ≥1 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(1)

	b := &bench{sims: build(), seed: *seed, golden: golden}
	b.run(time.Duration(*seconds)*time.Second, *traceFlag == 1)

	var metrics map[string]metric
	if *traceFlag == 1 {
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEndMetrics()
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
