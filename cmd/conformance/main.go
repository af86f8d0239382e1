// Command conformance drives the differential-conformance subsystem: the
// protocol model checker (§5.1.4; up to 4 hosts and 2 lines of one page
// coupled through promote/revoke, explored by a sharded BFS whose counts
// do not depend on the worker count), and the randomized adversarial trace
// fuzzer that cross-checks full machine runs against the sequentially
// consistent golden memory model.
//
// Usage:
//
//	conformance -hosts 4                     # model check, 4 hosts, 2 lines
//	conformance -hosts 3 -lines 1 -workers 1 # the paper's one-line instance, sequentially
//	conformance -fuzz 200 -seed 7 -shrink    # 200-trace-set fuzz campaign
//
// Exit status: 0 ok, 1 violation or fuzz failure, 2 bad flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pipm/internal/check"
	"pipm/internal/conformance"
)

func main() {
	var (
		hosts    = flag.Int("hosts", 4, "model check: host count (2..4)")
		lines    = flag.Int("lines", 2, "model check: cache lines of the shared page (1..2)")
		protocol = flag.String("protocol", "both", "model check: msi, pipm, or both")
		workers  = flag.Int("workers", 0, "model check: worker shards (0 = GOMAXPROCS)")
		fuzzSets = flag.Int("fuzz", 0, "fuzz mode: run this many adversarial trace sets instead")
		seed     = flag.Int64("seed", 1, "fuzz mode: campaign base seed")
		records  = flag.Int("records", 0, "fuzz mode: records per core (0 = default)")
		shrink   = flag.Bool("shrink", false, "fuzz mode: minimize failing trace sets")
	)
	flag.Parse()

	if *fuzzSets != 0 {
		os.Exit(runFuzz(*fuzzSets, *seed, *records, *shrink))
	}
	os.Exit(runCheck(*hosts, *lines, *protocol, *workers))
}

func runCheck(hosts, lines int, protocol string, workers int) int {
	var variants []bool
	switch protocol {
	case "msi":
		variants = []bool{false}
	case "pipm":
		variants = []bool{true}
	case "both":
		variants = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "conformance: unknown protocol %q\n", protocol)
		return 2
	}
	if hosts < 2 || hosts > check.MaxHosts || lines < 1 || lines > check.MaxLines {
		fmt.Fprintf(os.Stderr, "conformance: instance out of range (hosts 2..%d, lines 1..%d)\n",
			check.MaxHosts, check.MaxLines)
		return 2
	}
	failed := false
	for _, ext := range variants {
		name := "MSI"
		if ext {
			name = "MSI+PIPM"
		}
		start := time.Now()
		res, v := check.Run(check.Options{Hosts: hosts, Lines: lines, PIPM: ext, Workers: workers})
		elapsed := time.Since(start)
		if v != nil {
			failed = true
			fmt.Printf("%-9s %d hosts %d lines: VIOLATION %s\n", name, hosts, lines, v.Rule)
			for i, ev := range v.Path {
				fmt.Printf("  %3d. %v\n", i+1, ev)
			}
			continue
		}
		fmt.Printf("%-9s %d hosts %d lines: %7d states %9d transitions  depth %2d  %d workers  %v\n",
			name, hosts, lines, res.States, res.Transitions, res.Depth, res.Workers,
			elapsed.Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	fmt.Println("SWMR ok, SC-per-location ok, deadlock-free")
	return 0
}

func runFuzz(sets int, seed int64, records int, shrink bool) int {
	start := time.Now()
	runs, failures, err := conformance.Fuzz(conformance.FuzzOptions{
		Seed:    seed,
		Sets:    sets,
		Records: records,
		Shrink:  shrink,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformance: %v\n", err)
		return 2
	}
	fmt.Printf("fuzz: %d trace sets, %d machine runs, %d failure(s) in %v\n",
		sets, runs, len(failures), time.Since(start).Round(time.Millisecond))
	for _, f := range failures {
		fmt.Printf("FAIL seed=%d kind=%s scheme=%s records=%d\n", f.Seed, f.Kind, f.Scheme, f.Records)
		for _, v := range f.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}
