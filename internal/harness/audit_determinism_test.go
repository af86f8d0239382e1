package harness

import (
	"os"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
)

// The auditor must be a pure observer: attaching it may not perturb a
// single stat, latency or event ordering, and audited runs must stay as
// deterministic as bare ones. These tests pin both properties at the
// Result-digest level; TestGoldenQuickSweepAudited extends the check to
// the committed golden digests.

// auditDetOptions is a deliberately small configuration so the matrix of
// (mode × scheme) runs stays fast.
func auditDetOptions() Options {
	o := QuickOptions()
	o.RecordsPerCore = 8000
	o.Workloads = o.Workloads[:1]
	return o
}

// TestAuditorObservationOnly runs the same simulation bare, under quantum
// auditing and under paranoid auditing, and requires bit-identical Results:
// the auditor reads protocol state but may never write it or reschedule an
// event.
func TestAuditorObservationOnly(t *testing.T) {
	o := auditDetOptions()
	wl := o.Workloads[0]
	// Paranoid sweeps after every protocol transition, so it is priced in
	// only where transitions are richest (the hardware scheme) and where the
	// family previously tripped a false positive (local-only, which has no
	// cross-host coherence to check); the cheaper quantum mode covers every
	// family.
	modesFor := func(k migration.Kind) []audit.Options {
		m := []audit.Options{{Mode: audit.Quantum}}
		if k == migration.PIPM || k == migration.LocalOnly {
			m = append(m, audit.Options{Mode: audit.Paranoid})
		}
		return m
	}
	for _, k := range []migration.Kind{migration.Native, migration.Memtis, migration.PIPM, migration.LocalOnly} {
		bare, _, _, err := Run(o.Request(wl, k))
		if err != nil {
			t.Fatalf("%v bare: %v", k, err)
		}
		want := DigestResult(bare)
		for _, am := range modesFor(k) {
			req := o.Request(wl, k)
			req.Audit = am
			res, _, rep, err := Run(req)
			if err != nil {
				t.Fatalf("%v %v: %v", k, am.Mode, err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("%v %v: auditor found violations: %v", k, am.Mode, err)
			}
			if rep.Sweeps == 0 {
				t.Fatalf("%v %v: auditor attached but never swept", k, am.Mode)
			}
			if got := DigestResult(res); got != want {
				t.Errorf("%v: digest under %v audit %s… != bare %s… (auditor perturbed the run)",
					k, am.Mode, got[:12], want[:12])
			}
		}
	}
}

// TestAuditedRunDeterminism replays one audited run and requires identical
// digests and identical audit telemetry, then repeats the whole batch
// through the memoised engine at 1 and 8 workers: scheduling the runs
// differently may not change a bit of any Result.
func TestAuditedRunDeterminism(t *testing.T) {
	o := auditDetOptions()
	wl := o.Workloads[0]
	aopt := audit.Options{Mode: audit.Quantum}

	req := o.Request(wl, migration.PIPM)
	req.Audit = aopt
	r1, _, rep1, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, rep2, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if DigestResult(r1) != DigestResult(r2) {
		t.Fatal("same audited run digests differently across replays")
	}
	if rep1.Sweeps != rep2.Sweeps || rep1.Checks != rep2.Checks {
		t.Fatalf("audit telemetry not deterministic: %d/%d sweeps, %d/%d checks",
			rep1.Sweeps, rep2.Sweeps, rep1.Checks, rep2.Checks)
	}

	// One scheme per family is enough to catch a scheduling-order leak.
	schemes := []migration.Kind{migration.Native, migration.Memtis, migration.PIPM, migration.LocalOnly}
	digests := func(workers int) map[string]string {
		runner := NewRunner(Options{Workers: workers})
		out := make(map[string]string)
		for _, k := range schemes {
			res, err := runner.Get(RunRequest{
				Cfg: o.Cfg, WL: wl, Scheme: k,
				Records: o.RecordsPerCore, Seed: o.Seed, Audit: aopt,
			})
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, k, err)
			}
			out[k.String()] = DigestResult(res)
		}
		return out
	}
	serial, parallel := digests(1), digests(8)
	for k, want := range serial {
		if parallel[k] != want {
			t.Errorf("%s: digest differs between 1 and 8 workers", k)
		}
	}
}

// TestGoldenQuickSweepAudited re-runs the golden quick sweep with the
// quantum auditor attached and matches every digest against
// testdata/golden_quick.json by (workload, scheme): the committed golden
// digests hold with auditing on, proving the production validation
// configuration observes exactly the runs the golden file pins.
//
// The default scope is every scheme on the first quick workload, which
// keeps the harness package inside go test's per-package timeout on a
// single-core box; set PIPM_FULL_AUDITED_GOLDEN=1 (the CI validate job
// does) to cover all 24 golden pairs.
func TestGoldenQuickSweepAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("audited quick sweep is too slow for -short")
	}
	want := map[string]string{}
	for _, e := range loadGolden(t, "quick").Entries {
		want[e.label()] = e.Digest
	}
	o := QuickOptions()
	workloads := o.Workloads[:1]
	if os.Getenv("PIPM_FULL_AUDITED_GOLDEN") != "" {
		workloads = o.Workloads
	}
	aopt := audit.Options{Mode: audit.Quantum}
	runner := NewRunner(Options{})

	for _, wl := range workloads {
		for _, k := range migration.Kinds {
			res, err := runner.Get(RunRequest{
				Cfg: o.Cfg, WL: wl, Scheme: k,
				Records: o.RecordsPerCore, Seed: o.Seed, Audit: aopt,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", wl.Name, k, err)
			}
			g, ok := want[wl.Name+"/"+k.String()]
			if !ok {
				t.Fatalf("%s/%v not in golden file", wl.Name, k)
			}
			if got := DigestResult(res); got != g {
				t.Errorf("%s/%v: audited digest %s… != golden %s…",
					wl.Name, k, got[:12], g[:12])
			}
		}
	}
}
