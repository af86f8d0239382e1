// Package telemetry is the simulator's observability layer: a registry of
// instruments (sampled gauge functions, log2-bucketed latency histograms)
// registered per component, an interval sampler driven by the sim event heap
// that snapshots every instrument into a compact time-series, and a bounded
// structured event trace exportable as Chrome trace-event / Perfetto JSON.
//
// The subsystem is zero-overhead when disabled: every histogram method and
// the trace emitter are safe on nil receivers, so a disabled machine holds
// nil handles and each hot-path hook costs exactly one predictable branch
// (pinned by BenchmarkTelemetryDisabledOverhead at the repo root).
package telemetry

import (
	"math/bits"

	"pipm/internal/sim"
)

// Options selects which telemetry pieces a run collects. The zero value is
// fully disabled and — by design — does not perturb harness run keys, so
// memoized results of disabled runs stay valid.
type Options struct {
	// SampleInterval is the simulated-time distance between instrument
	// snapshots; 0 disables the time-series (and the registry).
	SampleInterval sim.Time
	// Trace enables the structured protocol-event trace.
	Trace bool
	// TraceCapacity bounds the trace ring buffer in events; 0 means the
	// DefaultTraceCapacity. Older events are dropped first.
	TraceCapacity int
}

// DefaultTraceCapacity is the ring-buffer bound used when
// Options.TraceCapacity is zero.
const DefaultTraceCapacity = 1 << 16

// Enabled reports whether any telemetry piece is on.
func (o Options) Enabled() bool { return o.SampleInterval > 0 || o.Trace }

// Registry holds a machine's instruments and its sampled time-series. A nil
// Registry is valid and inert: every constructor returns nil handles and
// Snapshot is a no-op.
type Registry struct {
	names []string
	read  []func() float64

	hists     []*Histogram
	histNames []string

	samples []Sample
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry { return &Registry{} }

// Sample is one interval snapshot: every registered scalar instrument read
// at one simulated instant, in registration order.
type Sample struct {
	At     sim.Time
	Values []float64
}

// TimeSeries is the sampled history of a registry's scalar instruments.
type TimeSeries struct {
	Names   []string
	Samples []Sample
}

// Histogram is a log2-bucketed latency histogram: an observation v lands in
// bucket bits.Len64(v), so bucket b covers [2^(b-1), 2^b). The nil Histogram
// is a valid no-op, which is the disabled-telemetry fast path.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     sim.Time
}

// Observe records one duration. Negative observations clamp to zero.
func (h *Histogram) Observe(v sim.Time) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() sim.Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation, 0 when empty.
func (h *Histogram) Mean() sim.Time {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Bucket returns the count in log2 bucket b (0 ≤ b ≤ 64).
func (h *Histogram) Bucket(b int) uint64 {
	if h == nil {
		return 0
	}
	return h.buckets[b]
}

// GaugeFunc registers a sampled gauge backed by fn, read at snapshot time.
// This is the preferred way to surface counters a component already keeps
// (cache hits, link bytes, footprint) without touching its hot path at all.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, fn)
}

// Histogram registers and returns a named log2 histogram. Histograms are not
// part of per-interval samples; their buckets are exported once per run.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.hists = append(r.hists, h)
	r.histNames = append(r.histNames, name)
	return h
}

func (r *Registry) register(name string, fn func() float64) {
	r.names = append(r.names, name)
	r.read = append(r.read, fn)
}

// Each calls fn once per registered scalar instrument with its current
// value, in registration order. Unlike Snapshot it records nothing — it is
// the read path for live exports (the experiment service's /metrics). No-op
// on a nil registry. Not safe against concurrent registration; register
// everything before the first Each, as the machine does before Run.
func (r *Registry) Each(fn func(name string, value float64)) {
	if r == nil {
		return
	}
	for i, name := range r.names {
		fn(name, r.read[i]())
	}
}

// Snapshot reads every scalar instrument and appends one sample at time at.
// No-op on a nil registry.
func (r *Registry) Snapshot(at sim.Time) {
	if r == nil {
		return
	}
	vals := make([]float64, len(r.read))
	for i, fn := range r.read {
		vals[i] = fn()
	}
	r.samples = append(r.samples, Sample{At: at, Values: vals})
}

// Series returns the sampled time-series (nil registry → nil).
func (r *Registry) Series() *TimeSeries {
	if r == nil {
		return nil
	}
	return &TimeSeries{Names: r.names, Samples: r.samples}
}

// HistogramSnapshot is one histogram's final state, for export.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	SumPS   int64         `json:"sum_ps"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one non-empty log2 bucket: Bit b covers [2^(b-1), 2^b) ps.
type BucketCount struct {
	Bit   int    `json:"bit"`
	Count uint64 `json:"count"`
}

// Histograms returns a snapshot of every registered histogram, in
// registration order, with empty buckets elided.
func (r *Registry) Histograms() []HistogramSnapshot {
	if r == nil {
		return nil
	}
	out := make([]HistogramSnapshot, 0, len(r.hists))
	for i, h := range r.hists {
		s := HistogramSnapshot{Name: r.histNames[i], Count: h.count, SumPS: int64(h.sum)}
		for b, n := range h.buckets {
			if n > 0 {
				s.Buckets = append(s.Buckets, BucketCount{Bit: b, Count: n})
			}
		}
		out = append(out, s)
	}
	return out
}

// Output bundles everything one run collected. Any field may be nil
// depending on Options.
type Output struct {
	SampleInterval sim.Time
	Series         *TimeSeries
	Histograms     []HistogramSnapshot
	Trace          *Trace
}
