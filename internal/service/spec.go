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

	"pipm/internal/harness"
)

// SweepRun is one expanded run of a sweep: the full request plus the
// identity strings the API reports.
type SweepRun struct {
	Req      harness.RunRequest
	Key      string
	Workload string
	Scheme   string
}

// Expand resolves the spec (harness.SweepSpec.Resolve) and crosses its
// workloads with its schemes into the deduplicated run set, in (workload,
// scheme) presentation order. The returned job ID is content-addressed — a
// digest over the sorted canonical run keys — so identical sweeps, however
// phrased, map to one job.
func Expand(spec harness.SweepSpec, maxRuns int) (runs []SweepRun, id string, err error) {
	o, kinds, err := spec.Resolve()
	if err != nil {
		return nil, "", err
	}
	seen := map[string]bool{}
	for _, wl := range o.Workloads {
		for _, k := range kinds {
			req := o.Request(wl, k)
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
