package validate

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/harness"
)

// smallOptions shrinks the quick tier (validate -quick) far enough for a
// unit test: one workload, a reduced record budget, two seeds.
func smallOptions() Options {
	o := Options{Harness: harness.QuickOptions(), Seeds: 2}
	o.Harness.Audit = audit.Options{Mode: audit.Quantum}
	o.Harness.RecordsPerCore = 10_000
	o.Harness.Workloads = o.Harness.Workloads[:1]
	return o
}

func TestEstimate(t *testing.T) {
	e := estimate([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if e.Mean != 5 {
		t.Fatalf("mean = %g, want 5", e.Mean)
	}
	if math.Abs(e.Stddev-2.138) > 0.001 {
		t.Fatalf("stddev = %g, want ≈2.138", e.Stddev)
	}
	// df=7 → t=2.365; CI = t·sd/√8.
	want := 2.365 * e.Stddev / math.Sqrt(8)
	if math.Abs(e.CI95-want) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", e.CI95, want)
	}
	if one := estimate([]float64{3}); one.Mean != 3 || one.CI95 != 0 {
		t.Fatalf("single sample: %+v", one)
	}
}

func TestTCritMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		v := tCrit(df)
		if v > prev {
			t.Fatalf("tCrit(%d) = %g > tCrit(%d) = %g", df, v, df-1, prev)
		}
		prev = v
	}
}

// TestSmallPassClean runs the full pass — audited sweep, every relation,
// replication — on a reduced configuration and expects zero failures.
func TestSmallPassClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run validation pass")
	}
	rep, err := Run(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		var buf bytes.Buffer
		rep.Render(&buf)
		t.Fatalf("validation failed:\n%s", buf.String())
	}
	if rep.Audit.Runs == 0 || rep.Audit.Sweeps == 0 || rep.Audit.Checks == 0 {
		t.Fatalf("audited sweep did no work: %+v", rep.Audit)
	}
	if len(rep.Relations) < 6 {
		t.Fatalf("registry has %d relations, want ≥ 6", len(rep.Relations))
	}
	if len(rep.Replication) == 0 {
		t.Fatal("no replication rows")
	}
	for _, row := range rep.Replication {
		if row.ExecTime.Mean <= 0 {
			t.Fatalf("%s/%s: nonpositive exec time %+v", row.Workload, row.Scheme, row.ExecTime)
		}
		if row.Seeds != 2 {
			t.Fatalf("%s/%s: %d seeds, want 2", row.Workload, row.Scheme, row.Seeds)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Schema) {
		t.Fatal("JSON missing schema marker")
	}
	buf.Reset()
	rep.Render(&buf)
	for _, want := range []string{"audited sweep", "metamorphic relations", "replication"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendered report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestAuditPhaseSurfacesViolations pins the failure path: a sweep whose runs
// report violations must mark the report failed. Violations are simulated by
// an impossible infrastructure setup — a scheme set the machine rejects is
// reported as an audit-phase failure rather than silently dropped.
func TestReportVerdicts(t *testing.T) {
	r := &Report{Schema: Schema}
	if r.Failed() || r.Err() != nil {
		t.Fatal("empty report should pass")
	}
	r.Audit.Failures = []string{"pr/pipm: swmr: two exclusive holders"}
	if !r.Failed() || r.Err() == nil {
		t.Fatal("audit failure not surfaced")
	}
	r2 := &Report{Relations: []RelationResult{{Name: "x", Pass: false}}}
	if !r2.Failed() || r2.Err() == nil {
		t.Fatal("relation failure not surfaced")
	}
}

// TestRunnerMemoSharing pins that the seed-invariance relation and the
// replication sweep share simulations: a pass's runner executes each
// distinct key exactly once however many phases request it.
func TestRunnerMemoSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run validation pass")
	}
	o := smallOptions()
	o.Harness.Audit = audit.Options{} // isolate the unaudited phases
	ctx := &Ctx{Opt: o, runner: harness.NewRunner(harness.Options{})}
	rows, err := runReplication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	before := len(ctx.runner.RunStats())
	// Re-request the same cells: everything must come from the memo.
	if _, err := runReplication(ctx); err != nil {
		t.Fatal(err)
	}
	if after := len(ctx.runner.RunStats()); after != before {
		t.Fatalf("memo miss: %d runs became %d", before, after)
	}
}
