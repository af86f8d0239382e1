package harness

import (
	"bytes"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// exportBytes renders one run's telemetry output through both production
// exporters so the comparison covers every byte the run can emit.
func exportBytes(t *testing.T, key string, tout *telemetry.Output) (ts, tr []byte) {
	t.Helper()
	runs := []telemetry.LabeledOutput{{Label: "pr/PIPM", Key: key, Output: tout}}
	var tsb, trb bytes.Buffer
	if err := telemetry.WriteTimeSeries(&tsb, runs); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(&trb, runs); err != nil {
		t.Fatal(err)
	}
	return tsb.Bytes(), trb.Bytes()
}

// TestInstrumentedRunDeterminism runs one fully instrumented simulation —
// telemetry sampling plus tracing plus the paranoid auditor — twice and
// requires the Result digest, both telemetry exports and the audit report
// to be identical. The row set covers one statistical workload and both
// mechanistic production generators: the serving loop's session state and
// the filesystem's append cursors must replay identically with every
// observer attached. TestAuditedRunDeterminism covers the memoised-engine
// half of the same guarantee.
func TestInstrumentedRunDeterminism(t *testing.T) {
	o := auditDetOptions()
	o.Telemetry = telemetry.Options{SampleInterval: 10 * sim.Microsecond, Trace: true}
	aopt := audit.Options{Mode: audit.Paranoid}.WithDefaults()

	rows := []workload.Params{
		o.Workloads[0],
		mustWorkload("llmserve"),
		mustWorkload("daxfs"),
	}
	for _, wl := range rows {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			run := func() (Result, *telemetry.Output, audit.Report) {
				req := o.Request(wl, migration.PIPM)
				req.Audit = aopt
				res, tout, rep, err := Run(req)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("paranoid auditor found violations: %v", err)
				}
				return res, tout, rep
			}

			baseRes, baseOut, baseRep := run()
			if baseRep.Sweeps == 0 {
				t.Fatal("paranoid auditor attached but never swept")
			}
			res, tout, rep := run()
			if got, want := DigestResult(res), DigestResult(baseRes); got != want {
				t.Errorf("rerun digest %s… != first run %s…", got[:12], want[:12])
			}
			wantTS, wantTR := exportBytes(t, "run", baseOut)
			ts, tr := exportBytes(t, "run", tout)
			if !bytes.Equal(ts, wantTS) {
				t.Error("rerun time-series export bytes differ from the first run")
			}
			if !bytes.Equal(tr, wantTR) {
				t.Error("rerun chrome-trace export bytes differ from the first run")
			}
			if rep.Sweeps != baseRep.Sweeps || rep.Checks != baseRep.Checks {
				t.Errorf("rerun audit report %d sweeps/%d checks != first run %d/%d",
					rep.Sweeps, rep.Checks, baseRep.Sweeps, baseRep.Checks)
			}
		})
	}
}
