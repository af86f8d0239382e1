// Command validate runs the simulator's validation pass (DESIGN.md §12):
//
//  1. the audited sweep — every scheme × workload with the runtime invariant
//     auditor attached, expecting zero violations;
//  2. the metamorphic relation registry — properties that must hold between
//     related runs (threshold degeneration, zero-sharing inertness, scheme
//     instruction invariance, prefix monotonicity, …);
//  3. multi-seed replication — N seeds per (scheme, workload), reduced to
//     mean ± 95% CI error bars.
//
// All simulations flow through one memoised run-graph engine, so a run
// shared by several phases executes once. The process exits nonzero when any
// phase fails — CI runs `validate -quick` as a gate.
//
// Usage:
//
//	validate -quick                      # CI tier: quick sweep, 5 seeds
//	validate -quick -seeds 3 -parallel 8
//	validate -records 200000 -audit paranoid
//	validate -quick -json validate.json  # machine-readable report
package main

import (
	"flag"
	"fmt"
	"os"

	"pipm/internal/harness"
	"pipm/internal/store"
	"pipm/internal/validate"
)

// invocation is one parsed validate command line.
type invocation struct {
	opt                validate.Options
	jsonPath, storeDir string
}

// parseArgs maps validate's flags onto a harness.SweepSpec, resolves it and
// builds the validation pass's options.
func parseArgs(fs *flag.FlagSet, args []string) (*invocation, error) {
	var (
		quick      = fs.Bool("quick", false, "use the small quick configuration (the CI tier)")
		records    = fs.Int64("records", 0, "override trace records per core (0 = the tier's default)")
		seeds      = fs.Int("seeds", 5, "replication seeds per (scheme, workload), ≥ 1")
		parallel   = fs.Int("parallel", 0, "max simulations in flight (0 = GOMAXPROCS)")
		progress   = fs.Bool("progress", false, "emit per-run progress lines on stderr")
		jsonPath   = fs.String("json", "", "write the machine-readable report to this file")
		auditMode  = fs.String("audit", "quantum", "auditor mode for the audited sweep: off, quantum or paranoid")
		auditEvery = fs.Int("audit-interval", 0, "quanta between periodic sweeps (0 = default)")
		workloads  = fs.String("workloads", "", "comma-separated workload subset (default: the tier's set)")
		schemes    = fs.String("schemes", "", "comma-separated scheme subset (default: all registered)")
		storeDir   = fs.String("store", os.Getenv("PIPM_STORE"), "persistent result store directory for the unaudited phases (default $PIPM_STORE; audited runs always execute)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *seeds < 1 {
		return nil, fmt.Errorf("-seeds must be ≥ 1, got %d", *seeds)
	}
	// The spec reads an empty mode as "no auditor" and a lone "all" as every
	// scheme; neither is a value these flags accept.
	if *auditMode == "" {
		return nil, fmt.Errorf("-audit: want off, quantum or paranoid")
	}
	names := harness.SplitList(*schemes)
	if len(names) == 1 && names[0] == "all" {
		return nil, fmt.Errorf("-schemes: unknown scheme %q (omit the flag for every scheme)", names[0])
	}
	spec := harness.SweepSpec{Quick: *quick, Records: *records, Audit: *auditMode,
		Workloads: harness.SplitList(*workloads), Schemes: names}
	opt, kinds, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	o := validate.Options{Harness: opt, Schemes: kinds, Seeds: *seeds}
	if o.Harness.Audit.Enabled() {
		o.Harness.Audit.Interval = *auditEvery
	}
	o.Harness.Workers = *parallel
	if *progress {
		o.Harness.Progress = os.Stderr
	}
	return &invocation{opt: o, jsonPath: *jsonPath, storeDir: *storeDir}, nil
}

func main() {
	inv, err := parseArgs(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fatal(err)
	}

	// Fail fast on an unwritable report path: the validation pass can take
	// minutes, and its verdict must not be lost to a typo discovered at the
	// end.
	if inv.jsonPath != "" {
		if err := store.ProbeFile(inv.jsonPath); err != nil {
			fatal(err)
		}
	}
	o := inv.opt
	if inv.storeDir != "" {
		st, err := store.Open(inv.storeDir)
		if err != nil {
			fatal(err)
		}
		o.Harness.Store = st
	}

	rep, err := validate.Run(o)
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)

	if inv.jsonPath != "" {
		if err := store.WriteToAtomic(inv.jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[validate] wrote %s\n", inv.jsonPath)
	}

	if err := rep.Err(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "[validate] all phases clean")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "validate:", err)
	os.Exit(1)
}
