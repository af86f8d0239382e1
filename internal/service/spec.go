// Package service is the experiment service: a long-running HTTP daemon in
// front of the harness run-graph engine and the persistent result store
// (DESIGN.md §15). Clients submit sweep specifications (workloads × schemes
// × budget, plus the optional telemetry/audit subsystems), the service
// expands them into canonical RunRequests and executes them on one shared
// harness.Runner — so concurrent identical submissions dedupe through the
// engine's singleflight memo, a warm store answers repeats from disk, and a
// job is nothing more than a watch over a set of run keys. Progress streams
// as Server-Sent Events, artefacts (results, time-series, Perfetto traces)
// are served straight from the store, and /metrics exports the process
// telemetry registry plus the service counters.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"pipm/internal/audit"
	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// SweepSpec is the wire form of one sweep submission (POST /v1/sweeps). The
// zero value of every field means "the harness default": the full Table 1
// catalog (or the quick trio with Quick), every registered scheme, the base
// option set's record budget and seed, and no optional subsystems.
type SweepSpec struct {
	// Workloads are Table 1 catalog names; empty means the base option
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
	// harness.ScaleForHosts, exactly like the offline CLIs' -hosts, so the
	// same cluster size yields the same machine and the same run keys.
	Hosts     int   `json:"hosts,omitempty"`
	Cores     int   `json:"cores_per_host,omitempty"`
	SharedMiB int64 `json:"shared_mib,omitempty"`

	// SampleInterval, a Go duration string ("10us"), enables per-run
	// interval time-series collection; Trace enables the protocol event
	// trace. Either one folds telemetry into the run keys, exactly like
	// the offline CLIs.
	SampleInterval string `json:"sample_interval,omitempty"`
	Trace          bool   `json:"trace,omitempty"`

	// Audit attaches the runtime invariant auditor: "", "off", "quantum"
	// or "paranoid". Audited runs always execute — they bypass the result
	// store in both directions.
	Audit string `json:"audit,omitempty"`
}

// SweepRun is one expanded run of a sweep: the full request plus the
// identity strings the API reports.
type SweepRun struct {
	Req      harness.RunRequest
	Key      string
	Workload string
	Scheme   string
}

// Expand resolves the spec against the harness defaults into its
// deduplicated run set, in (workload, scheme) presentation order. The
// returned job ID is content-addressed — a digest over the sorted canonical
// run keys — so identical sweeps, however phrased, map to one job.
func Expand(spec SweepSpec, maxRuns int) (runs []SweepRun, id string, err error) {
	base := harness.DefaultOptions()
	if spec.Quick {
		base = harness.QuickOptions()
	}

	for _, f := range []struct {
		name string
		v    int64
	}{
		{"records_per_core", spec.Records}, {"hosts", int64(spec.Hosts)},
		{"cores_per_host", int64(spec.Cores)}, {"shared_mib", spec.SharedMiB},
	} {
		if f.v < 0 {
			return nil, "", fmt.Errorf("%s must be ≥ 0 (0 = base default), got %d", f.name, f.v)
		}
	}

	cfg := base.Cfg
	if spec.Hosts > 0 {
		cfg = harness.ScaleForHosts(cfg, spec.Hosts)
	}
	if spec.Cores > 0 {
		cfg.CoresPerHost = spec.Cores
	}
	if spec.SharedMiB > 0 {
		cfg.SharedBytes = spec.SharedMiB << 20
	}
	if err := cfg.Validate(); err != nil {
		return nil, "", fmt.Errorf("config: %w", err)
	}

	records := base.RecordsPerCore
	if spec.Records > 0 {
		records = spec.Records
	}
	seed := base.Seed
	if spec.Seed != 0 {
		seed = spec.Seed
	}

	var topt telemetry.Options
	if spec.SampleInterval != "" {
		d, err := time.ParseDuration(spec.SampleInterval)
		if err != nil {
			return nil, "", fmt.Errorf("sample_interval: %w", err)
		}
		if d <= 0 {
			return nil, "", fmt.Errorf("sample_interval must be positive, got %q", spec.SampleInterval)
		}
		topt.SampleInterval = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	topt.Trace = spec.Trace

	var aopt audit.Options
	if spec.Audit != "" {
		mode, err := audit.ParseMode(spec.Audit)
		if err != nil {
			return nil, "", err
		}
		aopt.Mode = mode
	}

	wls := base.Workloads
	if len(spec.Workloads) > 0 {
		wls = wls[:0:0]
		for _, name := range spec.Workloads {
			wl, err := workload.ByName(name)
			if err != nil {
				return nil, "", err
			}
			wls = append(wls, wl)
		}
	}

	kinds := migration.Kinds
	if len(spec.Schemes) > 0 && !(len(spec.Schemes) == 1 && spec.Schemes[0] == "all") {
		kinds = kinds[:0:0]
		for _, name := range spec.Schemes {
			sc, err := migration.ByName(name)
			if err != nil {
				return nil, "", err
			}
			kinds = append(kinds, sc.Kind)
		}
	}

	seen := map[string]bool{}
	for _, wl := range wls {
		for _, k := range kinds {
			req := harness.RunRequest{
				Cfg: cfg, WL: wl, Scheme: k, Records: records, Seed: seed,
				Telemetry: topt, Audit: aopt,
			}
			key := req.Key().String()
			if seen[key] {
				continue // duplicate names in the spec collapse to one run
			}
			seen[key] = true
			runs = append(runs, SweepRun{Req: req, Key: key, Workload: wl.Name, Scheme: k.String()})
		}
	}
	if len(runs) == 0 {
		return nil, "", fmt.Errorf("sweep expands to zero runs")
	}
	if maxRuns > 0 && len(runs) > maxRuns {
		return nil, "", fmt.Errorf("sweep expands to %d runs, limit is %d", len(runs), maxRuns)
	}
	return runs, jobID(runs), nil
}

// jobID derives the content-addressed job identity: sha256 over the sorted
// canonical run keys. Two submissions naming the same run set — in any
// order, with any redundant aliases — share one job.
func jobID(runs []SweepRun) string {
	keys := make([]string, len(runs))
	for i, r := range runs {
		keys[i] = r.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
