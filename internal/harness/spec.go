package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"pipm/internal/audit"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/workload"
)

// SweepSpec names a run set by the knobs every front end exposes: the
// service decodes it from a POST /v1/sweeps body, and pipmsim, experiments
// and validate map their flags onto it. Resolve is the only code that turns
// these knobs into Options, so one cluster size, budget or telemetry setting
// yields the same run keys from every front end. The zero value of every
// field means "the harness default": the full Table 1 catalog (or the quick
// trio with Quick), every registered scheme, the base option set's record
// budget and seed, and no optional subsystems.
type SweepSpec struct {
	// Workloads are registered workload names; empty means the base option
	// set's workload list (full catalog, or the quick trio with Quick).
	Workloads []string `json:"workloads,omitempty"`
	// Schemes are registry names ("pipm", "native", ...); empty or
	// ["all"] means every registered scheme in presentation order.
	Schemes []string `json:"schemes,omitempty"`
	// Records is the per-core trace budget; 0 means the base default and
	// negative values are rejected.
	Records int64 `json:"records_per_core,omitempty"`
	// Seed seeds the workload generators; 0 means the base default (1).
	Seed int64 `json:"seed,omitempty"`
	// Quick selects the quick-scale base configuration (the unit-test
	// sizing) instead of the full scaled sweep configuration.
	Quick bool `json:"quick,omitempty"`

	// Optional system-shape overrides (0 keeps the base configuration;
	// negative values are rejected). A host count goes through
	// ScaleForHosts, so the same cluster size yields the same machine and
	// the same run keys as the cluster-scale experiment.
	Hosts     int   `json:"hosts,omitempty"`
	Cores     int   `json:"cores_per_host,omitempty"`
	SharedMiB int64 `json:"shared_mib,omitempty"`

	// SampleInterval, a Go duration string ("10us"), enables per-run
	// interval time-series collection; Trace enables the protocol event
	// trace. Either one folds telemetry into the run keys.
	SampleInterval string `json:"sample_interval,omitempty"`
	Trace          bool   `json:"trace,omitempty"`

	// Audit attaches the runtime invariant auditor: "", "off", "quantum"
	// or "paranoid". Audited runs always execute — they bypass the result
	// store in both directions.
	Audit string `json:"audit,omitempty"`
}

// Resolve applies the spec to the quick or default base options and
// returns the resolved Options (configuration, workloads, record budget,
// seed, telemetry and audit) plus the scheme list. The runtime-only fields
// — Workers, Progress, OnRunDone, Store — are left for the caller.
func (s SweepSpec) Resolve() (Options, []migration.Kind, error) {
	o := DefaultOptions()
	if s.Quick {
		o = QuickOptions()
	}

	for _, f := range []struct {
		name string
		v    int64
	}{
		{"records_per_core", s.Records}, {"hosts", int64(s.Hosts)},
		{"cores_per_host", int64(s.Cores)}, {"shared_mib", s.SharedMiB},
	} {
		if f.v < 0 {
			return Options{}, nil, fmt.Errorf("%s must be ≥ 0 (0 = base default), got %d", f.name, f.v)
		}
	}

	if s.Hosts > 0 {
		o.Cfg = ScaleForHosts(o.Cfg, s.Hosts)
	}
	if s.Cores > 0 {
		o.Cfg.CoresPerHost = s.Cores
	}
	if s.SharedMiB > 0 {
		o.Cfg.SharedBytes = s.SharedMiB << 20
	}
	if err := o.Cfg.Validate(); err != nil {
		return Options{}, nil, err
	}

	if s.Records > 0 {
		o.RecordsPerCore = s.Records
	}
	if s.Seed != 0 {
		o.Seed = s.Seed
	}

	if s.SampleInterval != "" {
		d, err := time.ParseDuration(s.SampleInterval)
		if err != nil {
			return Options{}, nil, fmt.Errorf("sample_interval: %w", err)
		}
		if d <= 0 {
			return Options{}, nil, fmt.Errorf("sample_interval must be positive, got %q", s.SampleInterval)
		}
		o.Telemetry.SampleInterval = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	o.Telemetry.Trace = s.Trace

	if s.Audit != "" {
		mode, err := audit.ParseMode(s.Audit)
		if err != nil {
			return Options{}, nil, err
		}
		o.Audit = audit.Options{Mode: mode}
	}

	if len(s.Workloads) > 0 {
		o.Workloads = nil
		for _, name := range s.Workloads {
			wl, err := workload.ByName(name)
			if err != nil {
				return Options{}, nil, err
			}
			o.Workloads = append(o.Workloads, wl)
		}
	}

	kinds := migration.Kinds
	if len(s.Schemes) > 0 && !(len(s.Schemes) == 1 && s.Schemes[0] == "all") {
		kinds = nil
		for _, name := range s.Schemes {
			sc, err := migration.ByName(name)
			if err != nil {
				return Options{}, nil, err
			}
			kinds = append(kinds, sc.Kind)
		}
	}
	return o, kinds, nil
}

// Request names the (wl, k) run at o's configuration, record budget, seed,
// telemetry and audit settings.
func (o Options) Request(wl workload.Params, k migration.Kind) RunRequest {
	return RunRequest{Cfg: o.Cfg, WL: wl, Scheme: k, Records: o.RecordsPerCore,
		Seed: o.Seed, Telemetry: o.Telemetry, Audit: o.Audit}
}

// ListSchemes prints the scheme registry the spec's scheme names resolve
// against, one tab-aligned row per scheme.
func ListSchemes(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tFAMILY\tDESCRIPTION")
	for _, s := range migration.Registered() {
		fmt.Fprintf(tw, "%s\t%v\t%s\n", s.Name, s.Family, s.Desc)
	}
	tw.Flush()
}

// ListWorkloads prints every workload the spec's workload names resolve
// against: the Table 1 statistical catalog plus the mechanistic
// production-service generators, whose mix comes from their
// serving/filesystem loop rather than SharedFrac/WriteFrac knobs.
func ListWorkloads(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tSUITE\tFOOTPRINT\tSHARED%\tWRITE%")
	for _, wl := range workload.All() {
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

// SplitList splits a comma-separated flag value into trimmed names; the
// empty string is the empty list (the spec's "base default").
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	names := strings.Split(s, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}
