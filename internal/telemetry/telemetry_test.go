package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"pipm/internal/sim"
)

func TestNilSafety(t *testing.T) {
	// Every handle obtained from a nil registry, and the nil trace, must be
	// inert: this is the disabled-telemetry fast path the machine relies on.
	var r *Registry
	h := r.Histogram("h")
	r.GaugeFunc("f", func() float64 { return 1 })
	r.Snapshot(0)
	h.Observe(5 * sim.Nanosecond)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatalf("nil instruments recorded values")
	}
	if r.Series() != nil || r.Histograms() != nil {
		t.Fatalf("nil registry produced output")
	}

	var tr *Trace
	tr.Emit(0, 0, EvPromote, 0, 1, 2)
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatalf("nil trace recorded events")
	}
}

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry()
	var reqs uint64
	r.GaugeFunc("reqs", func() float64 { return float64(reqs) })
	r.GaugeFunc("twice", func() float64 { return 2 * float64(reqs) })

	reqs += 3
	r.Snapshot(10 * sim.Microsecond)
	reqs += 4
	r.Snapshot(20 * sim.Microsecond)

	s := r.Series()
	if len(s.Names) != 2 || s.Names[0] != "reqs" || s.Names[1] != "twice" {
		t.Fatalf("names = %v", s.Names)
	}
	if len(s.Samples) != 2 {
		t.Fatalf("samples = %d", len(s.Samples))
	}
	if got := s.Samples[0].Values; got[0] != 3 || got[1] != 6 {
		t.Fatalf("sample 0 = %v", got)
	}
	if got := s.Samples[1].Values; got[0] != 7 || got[1] != 14 {
		t.Fatalf("sample 1 = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(0)                   // bucket 0
	h.Observe(1)                   // bucket 1
	h.Observe(sim.Time(7))         // bucket 3: [4,8)
	h.Observe(sim.Time(8))         // bucket 4: [8,16)
	h.Observe(-5 * sim.Nanosecond) // clamps to 0
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Bucket(0) != 2 || h.Bucket(1) != 1 || h.Bucket(3) != 1 || h.Bucket(4) != 1 {
		t.Fatalf("bucket counts wrong: %d %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(3), h.Bucket(4))
	}
	if h.Mean() != (1+7+8)/5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	snaps := r.Histograms()
	if len(snaps) != 1 || snaps[0].Name != "lat" || len(snaps[0].Buckets) != 4 {
		t.Fatalf("snapshot = %+v", snaps)
	}
}

func TestTraceRingBound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), 0, EvLineMigrate, 0, int64(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		if e.Page != int64(6+i) {
			t.Fatalf("ring order wrong: events = %+v", ev)
		}
	}
}

// sampleOutput builds a small two-host output with events and series.
func sampleOutput() *Output {
	r := NewRegistry()
	var foot uint64
	r.GaugeFunc("h0.footprint.pages", func() float64 { return float64(foot) })
	r.GaugeFunc("h1.link.up.bytes", func() float64 { return 128 })
	h := r.Histogram("lat.cxl")
	h.Observe(300 * sim.Nanosecond)
	foot += 2
	r.Snapshot(5 * sim.Microsecond)
	foot++
	r.Snapshot(10 * sim.Microsecond)

	tr := NewTrace(16)
	tr.Emit(sim.Microsecond, 0, EvPromote, 1, 42, 0)
	tr.Emit(2*sim.Microsecond, 500*sim.Nanosecond, EvRevoke, 0, 42, 7)
	tr.Emit(3*sim.Microsecond, 0, EvLineMigrate, DeviceHost, 9, 3)

	return &Output{
		SampleInterval: 5 * sim.Microsecond,
		Series:         r.Series(),
		Histograms:     r.Histograms(),
		Trace:          tr,
	}
}

func TestExportFormatsValidate(t *testing.T) {
	runs := []LabeledOutput{{Label: "pr/pipm", Key: "abc123", Output: sampleOutput()}}

	var ts bytes.Buffer
	if err := WriteTimeSeries(&ts, runs); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTimeSeries(ts.Bytes()); err != nil {
		t.Fatalf("time-series did not validate: %v\n%s", err, ts.String())
	}

	var tr bytes.Buffer
	if err := WriteChromeTrace(&tr, runs); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(tr.Bytes()); err != nil {
		t.Fatalf("chrome trace did not validate: %v\n%s", err, tr.String())
	}
	for _, want := range []string{`"promote"`, `"revoke"`, `"line-migrate"`,
		`"process_name"`, `"host1"`, `"cxl-device"`, `"ph":"C"`, `"ph":"X"`} {
		if !strings.Contains(tr.String(), want) {
			t.Fatalf("chrome trace missing %s:\n%s", want, tr.String())
		}
	}

	var csvBuf bytes.Buffer
	if err := WriteTimeSeriesCSV(&csvBuf, runs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	// Header + 2 samples × 2 series.
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
	if lines[0] != "label,key,t_ps,series,value" {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestExportDeterminism(t *testing.T) {
	runs := []LabeledOutput{{Label: "pr/pipm", Output: sampleOutput()}}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome trace export is not deterministic")
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace validated")
	}
	if err := ValidateChromeTrace([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON trace validated")
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[{"name":"x","ph":"?","ts":1,"pid":0}]}`)); err == nil {
		t.Fatal("unknown phase validated")
	}
	if err := ValidateTimeSeries([]byte(`{"schema":"wrong","runs":[]}`)); err == nil {
		t.Fatal("wrong schema validated")
	}
	if err := ValidateTimeSeries([]byte(`{"schema":"pipm-timeseries/v1","runs":[{"label":"a","names":["x"],"samples":[{"t_ps":1,"values":[]}]}]}`)); err == nil {
		t.Fatal("inconsistent sample validated")
	}
}

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Fatal("zero Options enabled")
	}
	if !(Options{SampleInterval: sim.Microsecond}).Enabled() ||
		!(Options{Trace: true}).Enabled() {
		t.Fatal("non-zero Options disabled")
	}
}
