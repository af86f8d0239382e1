// Package validate is the metamorphic + statistical validation harness on
// top of the run-graph engine (DESIGN.md §12). Where the conformance
// subsystem checks the protocol against a golden model and the audit package
// checks invariants inside one run, this package checks relations *between*
// runs: metamorphic relations ("raising the promotion threshold to its
// maximum cannot increase promotions", "a workload that never touches the
// shared heap moves no data") executed as memoised run pairs, plus
// multi-seed replication that turns point measurements into mean ± CI error
// bars.
//
// All runs go through one harness.Runner, so a result needed by several
// relations — or by both a relation and the replication sweep — simulates
// exactly once.
package validate

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/workload"
)

// Schema identifies the JSON report layout.
const Schema = "pipm-validate/v1"

// Options configures a validation pass.
type Options struct {
	// Harness carries the base configuration, workload set, per-core record
	// budget, first seed, worker bound and progress sink. Its Audit options
	// configure the invariant auditor of the audited sweep (phase 1) alone;
	// zero disables that phase.
	Harness harness.Options
	// Schemes restricts the sweep; nil means every registered scheme.
	Schemes []migration.Kind
	// Seeds is the replication width: each (scheme, workload) runs at seeds
	// Harness.Seed .. Harness.Seed+Seeds-1. Needs ≥ 2 for error bars.
	Seeds int
}

func (o Options) schemes() []migration.Kind {
	if len(o.Schemes) > 0 {
		return o.Schemes
	}
	return migration.Kinds
}

func (o Options) hasScheme(k migration.Kind) bool {
	for _, s := range o.schemes() {
		if s == k {
			return true
		}
	}
	return false
}

// Report is the outcome of one validation pass.
type Report struct {
	Schema      string           `json:"schema"`
	Audit       AuditPhase       `json:"audit"`
	Relations   []RelationResult `json:"relations"`
	Replication []ReplicationRow `json:"replication"`
}

// AuditPhase summarises the audited sweep: every (scheme, workload) run with
// the invariant auditor attached. Failures carry one line per failed run.
type AuditPhase struct {
	Mode     string   `json:"mode"`
	Runs     int      `json:"runs"`
	Sweeps   uint64   `json:"sweeps"`
	Checks   uint64   `json:"checks"`
	Failures []string `json:"failures,omitempty"`
}

// RelationResult is one metamorphic relation's verdict.
type RelationResult struct {
	Name   string `json:"name"`
	Desc   string `json:"description"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Failed reports whether any phase found a problem.
func (r *Report) Failed() bool {
	if len(r.Audit.Failures) > 0 {
		return true
	}
	for _, rel := range r.Relations {
		if !rel.Pass {
			return true
		}
	}
	return false
}

// Err returns nil when the pass is clean, else a one-line summary error.
func (r *Report) Err() error {
	if !r.Failed() {
		return nil
	}
	bad := 0
	for _, rel := range r.Relations {
		if !rel.Pass {
			bad++
		}
	}
	return fmt.Errorf("validate: %d audit failure(s), %d relation failure(s)",
		len(r.Audit.Failures), bad)
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== audited sweep (%s) ==\n", r.Audit.Mode)
	fmt.Fprintf(w, "runs %d  sweeps %d  checks %d  failures %d\n",
		r.Audit.Runs, r.Audit.Sweeps, r.Audit.Checks, len(r.Audit.Failures))
	for _, f := range r.Audit.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	fmt.Fprintf(w, "\n== metamorphic relations ==\n")
	for _, rel := range r.Relations {
		verdict := "ok  "
		if !rel.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s %-32s %s\n", verdict, rel.Name, rel.Detail)
	}
	fmt.Fprintf(w, "\n== replication (mean ± 95%% CI over %d seeds) ==\n", seedsOf(r))
	fmt.Fprintf(w, "%-10s %-10s %22s %16s %16s\n",
		"workload", "scheme", "exec-time", "ipc", "local-hit")
	for _, row := range r.Replication {
		fmt.Fprintf(w, "%-10s %-10s %22s %16s %16s\n",
			row.Workload, row.Scheme,
			row.ExecTime.format("ps"), row.IPC.format(""), row.LocalHitRate.format(""))
	}
}

func seedsOf(r *Report) int {
	if len(r.Replication) == 0 {
		return 0
	}
	return r.Replication[0].Seeds
}

// Ctx is what relations and phases run against: the shared memoised runner
// plus the pass options.
type Ctx struct {
	Opt    Options
	runner *harness.Runner
}

// get fetches one unaudited run through the shared memo.
func (c *Ctx) get(cfg config.Config, wl workload.Params, k migration.Kind,
	records, seed int64) (harness.Result, error) {
	return c.runner.Get(harness.RunRequest{
		Cfg: cfg, WL: wl, Scheme: k, Records: records, Seed: seed})
}

// base fetches the (workload, scheme) run at the pass's base budget and seed.
func (c *Ctx) base(wl workload.Params, k migration.Kind) (harness.Result, error) {
	return c.get(c.Opt.Harness.Cfg, wl, k, c.Opt.Harness.RecordsPerCore, c.Opt.Harness.Seed)
}

// Run executes the full validation pass: the audited sweep, every registered
// relation, and the replication sweep. The returned error is infrastructural
// (a simulation that failed to build or run); validation verdicts live in
// the Report — check Report.Failed or Report.Err.
func Run(o Options) (*Report, error) {
	if o.Seeds < 1 {
		o.Seeds = 1
	}
	ctx := &Ctx{Opt: o, runner: harness.NewRunner(o.Harness)}
	rep := &Report{Schema: Schema}

	if o.Harness.Audit.Enabled() {
		runAuditPhase(ctx, rep)
	}

	rows, err := runReplication(ctx)
	if err != nil {
		return rep, err
	}
	rep.Replication = rows

	if err := runRelations(ctx, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// runAuditPhase executes every (scheme, workload) pair with the invariant
// auditor attached. A violation (or any run error) becomes a failure line.
func runAuditPhase(ctx *Ctx, rep *Report) {
	o := ctx.Opt
	rep.Audit.Mode = o.Harness.Audit.Mode.String()
	type outcome struct {
		label  string
		report audit.Report
		err    error
	}
	var reqs []harness.RunRequest
	var labels []string
	for _, wl := range o.Harness.Workloads {
		for _, k := range o.schemes() {
			reqs = append(reqs, harness.RunRequest{
				Cfg: o.Harness.Cfg, WL: wl, Scheme: k,
				Records: o.Harness.RecordsPerCore, Seed: o.Harness.Seed,
				Audit: o.Harness.Audit,
			})
			labels = append(labels, wl.Name+"/"+k.String())
		}
	}
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req harness.RunRequest) {
			defer wg.Done()
			_, err := ctx.runner.Get(req)
			outs[i] = outcome{label: labels[i], report: ctx.runner.Report(req), err: err}
		}(i, req)
	}
	wg.Wait()
	for _, out := range outs {
		rep.Audit.Runs++
		rep.Audit.Sweeps += out.report.Sweeps
		rep.Audit.Checks += out.report.Checks
		if out.err != nil {
			rep.Audit.Failures = append(rep.Audit.Failures,
				fmt.Sprintf("%s: %v", out.label, out.err))
		}
	}
}

// runRelations evaluates the registry. Relations run concurrently — the
// runner's worker pool bounds actual simulation parallelism — and results
// keep registry order.
func runRelations(ctx *Ctx, rep *Report) error {
	rep.Relations = make([]RelationResult, len(Relations))
	errs := make([]error, len(Relations))
	var wg sync.WaitGroup
	for i, rel := range Relations {
		wg.Add(1)
		go func(i int, rel Relation) {
			defer wg.Done()
			detail, err := rel.Check(ctx)
			res := RelationResult{Name: rel.Name, Desc: rel.Desc, Pass: true, Detail: detail}
			if err != nil {
				if infra, ok := err.(*infraError); ok {
					errs[i] = infra.err
					return
				}
				res.Pass = false
				res.Detail = err.Error()
			}
			rep.Relations[i] = res
		}(i, rel)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// infraError marks a relation failure caused by the infrastructure (a run
// that failed to execute) rather than a violated relation.
type infraError struct{ err error }

func (e *infraError) Error() string { return e.err.Error() }

// infra wraps a run error so runRelations aborts instead of reporting a
// relation verdict.
func infra(err error) error { return &infraError{err: err} }
