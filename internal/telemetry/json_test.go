package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pipm/internal/sim"
)

// TestTraceJSONRoundTrip: a Trace serialised and reloaded must expose the
// same Events(), Dropped() and Len(), including after the ring has wrapped,
// and must keep accepting Emits up to its original capacity.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 13; i++ { // wraps: 5 oldest dropped
		tr.Emit(sim.Time(100*i), 0, EvPromote, i%3, int64(i), int64(2*i))
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.Dropped() != tr.Dropped() {
		t.Fatalf("round trip: len %d→%d, dropped %d→%d",
			tr.Len(), back.Len(), tr.Dropped(), back.Dropped())
	}
	if !reflect.DeepEqual(back.Events(), tr.Events()) {
		t.Fatal("round trip changed the event sequence")
	}
	// The reloaded ring keeps its capacity: one more Emit must evict exactly
	// one event, as it would have on the original.
	back.Emit(9999, 0, EvDemote, 1, 7, 7)
	if back.Len() != 8 || back.Dropped() != tr.Dropped()+1 {
		t.Fatalf("post-reload Emit: len %d dropped %d, want 8 / %d",
			back.Len(), back.Dropped(), tr.Dropped()+1)
	}
}

// TestTraceJSONNil: a nil *Trace inside an Output marshals as null and
// reloads as nil — the disabled-trace case the store hits on every
// time-series-only run.
func TestTraceJSONNil(t *testing.T) {
	type holder struct {
		Trace *Trace
	}
	data, err := json.Marshal(holder{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("null")) {
		t.Fatalf("nil trace marshalled as %s", data)
	}
	var back holder
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != nil {
		t.Fatal("null did not reload as a nil trace")
	}
}

// TestOutputJSONExportIdentity is the property the result store depends on:
// exporting a reloaded Output must produce the same bytes as exporting the
// original, for both the time-series and the Chrome trace writers.
func TestOutputJSONExportIdentity(t *testing.T) {
	reg := NewRegistry()
	var served, pages float64
	reg.GaugeFunc("host0.served", func() float64 { return served })
	reg.GaugeFunc("host0.footprint.pages", func() float64 { return pages })
	h := reg.Histogram("host0.lat")
	tr := NewTrace(4)
	for i := 0; i < 7; i++ {
		served++
		pages = float64(i) / 3
		h.Observe(sim.Time(10 * i))
		tr.Emit(sim.Time(50*i), sim.Time(i), EvLineMigrate, 0, int64(i), 1)
		reg.Snapshot(sim.Time(100 * i))
	}
	out := &Output{SampleInterval: 100, Series: reg.Series(), Histograms: reg.Histograms(), Trace: tr}

	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Output
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	for name, write := range map[string]func(w *bytes.Buffer, runs []LabeledOutput) error{
		"timeseries": func(w *bytes.Buffer, runs []LabeledOutput) error { return WriteTimeSeries(w, runs) },
		"csv":        func(w *bytes.Buffer, runs []LabeledOutput) error { return WriteTimeSeriesCSV(w, runs) },
		"chrome":     func(w *bytes.Buffer, runs []LabeledOutput) error { return WriteChromeTrace(w, runs) },
	} {
		var a, b bytes.Buffer
		if err := write(&a, []LabeledOutput{{Label: "pr/pipm", Key: "k", Output: out}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := write(&b, []LabeledOutput{{Label: "pr/pipm", Key: "k", Output: &back}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s export differs after JSON round trip", name)
		}
	}
}
