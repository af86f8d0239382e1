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

// telemetryTestOptions is the pr (GAP) setup the telemetry tests share:
// short traces, 10 µs sampling, tracing on.
func telemetryTestOptions() Options {
	o := QuickOptions()
	o.RecordsPerCore = 30_000
	o.Workloads = []workload.Params{mustWorkload("pr")}
	o.Telemetry = telemetry.Options{SampleInterval: 10 * sim.Microsecond, Trace: true}
	return o
}

// TestTelemetryResultInvariance pins the subsystem's core contract: enabling
// telemetry must not change a run's Result in any field.
func TestTelemetryResultInvariance(t *testing.T) {
	o := telemetryTestOptions()
	wl := o.Workloads[0]
	req := o.Request(wl, migration.PIPM)
	req.Telemetry = telemetry.Options{}
	plain, _, _, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, tout, _, err := Run(o.Request(wl, migration.PIPM))
	if err != nil {
		t.Fatal(err)
	}
	if tout == nil {
		t.Fatal("enabled telemetry returned no output")
	}
	if instrumented != plain {
		t.Fatalf("telemetry changed the Result:\nplain        %+v\ninstrumented %+v", plain, instrumented)
	}
}

// TestSuiteTelemetryFootprintCurve reproduces the Fig. 13 shape from the
// sampled time-series: under PIPM the local footprint grows incrementally
// from near zero, and the whole-page baseline (Nomad) also produces a curve —
// the scheme pair the figure contrasts. Both exports must validate.
func TestSuiteTelemetryFootprintCurve(t *testing.T) {
	o := telemetryTestOptions()
	s := NewSuite(o)
	wl := o.Workloads[0]
	for _, k := range []migration.Kind{migration.PIPM, migration.Nomad} {
		if _, err := s.run.Get(s.req(o.Cfg, wl, k)); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Telemetry()
	if len(runs) != 2 {
		t.Fatalf("Telemetry() returned %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		series := r.Output.Series
		if series == nil || len(series.Samples) < 3 {
			t.Fatalf("%s/%s: too few samples", r.Workload, r.Scheme)
		}
		// Find host 0's page-footprint instrument and check the curve rises
		// from its initial value: migration moves pages in over time.
		idx := -1
		for i, name := range series.Names {
			if name == "h0.footprint.pages" {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("%s/%s: no h0.footprint.pages series in %v", r.Workload, r.Scheme, series.Names)
		}
		first := series.Samples[0].Values[idx]
		last := series.Samples[len(series.Samples)-1].Values[idx]
		if last <= first {
			t.Errorf("%s/%s: footprint curve did not rise (%v → %v)", r.Workload, r.Scheme, first, last)
		}
		if r.Scheme == migration.PIPM.String() && r.Output.Trace.Len() == 0 {
			t.Errorf("PIPM run emitted no trace events")
		}
	}

	var ts, tr bytes.Buffer
	if err := s.WriteTimeSeries(&ts); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTimeSeries(ts.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(tr.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryDeterministicAcrossWorkers extends the seq-vs-parallel
// determinism guarantee to the telemetry exports: the emitted bytes must be
// identical for 1 and 8 workers.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	export := func(workers int) (ts, tr []byte) {
		o := telemetryTestOptions()
		o.Workers = workers
		s := NewSuite(o)
		wl := o.Workloads[0]
		reqs := []RunRequest{
			s.req(o.Cfg, wl, migration.PIPM),
			s.req(o.Cfg, wl, migration.Nomad),
			s.req(o.Cfg, wl, migration.Native),
		}
		if err := s.run.eng.runAll(reqs); err != nil {
			t.Fatal(err)
		}
		var tsb, trb bytes.Buffer
		if err := s.WriteTimeSeries(&tsb); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTrace(&trb); err != nil {
			t.Fatal(err)
		}
		return tsb.Bytes(), trb.Bytes()
	}
	ts1, tr1 := export(1)
	ts8, tr8 := export(8)
	if !bytes.Equal(ts1, ts8) {
		t.Error("time-series bytes differ between 1 and 8 workers")
	}
	if !bytes.Equal(tr1, tr8) {
		t.Error("trace bytes differ between 1 and 8 workers")
	}
}

// TestRunKeyTelemetryFolding pins the memo contract: disabled telemetry
// leaves the key unchanged; enabled telemetry produces a distinct key.
func TestRunKeyTelemetryFolding(t *testing.T) {
	o := QuickOptions()
	wl := o.Workloads[0]
	base := KeyOf(o.Cfg, wl, migration.PIPM, 100, 1)
	disabled := keyOf(o.Cfg, wl, migration.PIPM, 100, 1,
		telemetry.Options{}, audit.Options{})
	if base != disabled {
		t.Fatal("zero telemetry options changed the run key")
	}
	enabled := keyOf(o.Cfg, wl, migration.PIPM, 100, 1,
		telemetry.Options{SampleInterval: 10 * sim.Microsecond}, audit.Options{})
	if enabled == base {
		t.Fatal("enabled telemetry did not change the run key")
	}
	audited := keyOf(o.Cfg, wl, migration.PIPM, 100, 1,
		telemetry.Options{}, audit.Options{Mode: audit.Quantum})
	if audited == base || audited == enabled {
		t.Fatal("enabled auditing did not get its own run key")
	}
}
