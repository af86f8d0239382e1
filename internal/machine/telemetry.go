package machine

import (
	"fmt"

	"pipm/internal/config"
	"pipm/internal/stats"
	"pipm/internal/telemetry"
)

// EnableTelemetry attaches the observability subsystem to the machine:
// sampled instruments for every component (cores' service classes, L1/LLC,
// the device directory, CXL links, DDR5 channels, remap caches and the
// migration engine), per-class latency histograms, and the protocol event
// trace. It must be called after New and before Run. With the zero Options
// it is a no-op and the machine keeps its nil-handle fast paths.
func (m *Machine) EnableTelemetry(o telemetry.Options) error {
	if m.ran {
		return fmt.Errorf("machine: EnableTelemetry after Run")
	}
	if !o.Enabled() {
		return nil
	}
	m.telOpt = o
	if o.Trace {
		// Replaces the auditor's private ring if one was attached first; the
		// auditor reads m.trc at violation time, so it follows along.
		m.trc = telemetry.NewTrace(o.TraceCapacity)
		m.auditOwnsTrc = false
	}
	if o.SampleInterval <= 0 {
		return nil
	}
	m.tel = telemetry.NewRegistry()
	for cl := 0; cl < stats.NumClasses; cl++ {
		m.telLat[cl] = m.tel.Histogram("lat." + stats.Class(cl).String())
	}
	m.registerInstruments()
	return nil
}

// TelemetryOutput returns everything the run collected, or nil when
// telemetry was never enabled. Valid after Run.
func (m *Machine) TelemetryOutput() *telemetry.Output {
	if m.tel == nil && (m.trc == nil || m.auditOwnsTrc) {
		return nil
	}
	return &telemetry.Output{
		SampleInterval: m.telOpt.SampleInterval,
		Series:         m.tel.Series(),
		Histograms:     m.tel.Histograms(),
		Trace:          m.trc,
	}
}

// registerInstruments wires sampled gauges over counters each component
// already keeps, so the time-series costs nothing on any hot path — values
// are read only at snapshot instants.
func (m *Machine) registerInstruments() {
	r := m.tel

	// Machine-wide migration engine counters.
	r.GaugeFunc("mig.promotions", func() float64 { return float64(m.col.Promotions) })
	r.GaugeFunc("mig.demotions", func() float64 { return float64(m.col.Demotions) })
	r.GaugeFunc("mig.lines_moved", func() float64 { return float64(m.col.LinesMoved) })
	r.GaugeFunc("mig.bytes_moved", func() float64 { return float64(m.col.BytesMoved) })
	if m.mgr != nil {
		r.GaugeFunc("mig.vote_updates", func() float64 { return float64(m.mgr.Stats().VoteUpdates) })
		r.GaugeFunc("mig.revocations", func() float64 { return float64(m.mgr.Stats().Revocations) })
		gc := m.mgr.GlobalCache()
		r.GaugeFunc("remap.global.hits", func() float64 { return float64(gc.Hits()) })
		r.GaugeFunc("remap.global.misses", func() float64 { return float64(gc.Misses()) })
	}

	// CXL pooled DRAM and device directory.
	r.GaugeFunc("cxlmem.busy_ps", func() float64 { return float64(m.cxlMem.BusyTime()) })
	r.GaugeFunc("cxlmem.reads", func() float64 { return float64(m.cxlMem.Stats().Reads) })
	r.GaugeFunc("cxlmem.writes", func() float64 { return float64(m.cxlMem.Stats().Writes) })
	r.GaugeFunc("devdir.occupancy", func() float64 { return float64(m.devDir.Occupancy()) })

	for h := 0; h < m.cfg.Hosts; h++ {
		h := h
		hs := m.hosts[h]
		p := fmt.Sprintf("h%d.", h)

		// Core service classes (cumulative counts; per-class hit rates are
		// interval deltas of these).
		for cl := 0; cl < stats.NumClasses; cl++ {
			cl := cl
			r.GaugeFunc(p+"served."+stats.Class(cl).String(), func() float64 {
				return float64(m.col.Host(h).Served[cl])
			})
		}

		// Cache hierarchy: shared LLC plus the sum over the host's L1Ds.
		r.GaugeFunc(p+"llc.hits", func() float64 { return float64(hs.llc.Stats().Hits) })
		r.GaugeFunc(p+"llc.misses", func() float64 { return float64(hs.llc.Stats().Misses) })
		r.GaugeFunc(p+"l1.hits", func() float64 {
			var n uint64
			for _, c := range hs.cores {
				n += c.l1.Stats().Hits
			}
			return float64(n)
		})
		r.GaugeFunc(p+"l1.misses", func() float64 {
			var n uint64
			for _, c := range hs.cores {
				n += c.l1.Stats().Misses
			}
			return float64(n)
		})

		// Local-footprint gauges (instantaneous — the Fig. 13 curves).
		r.GaugeFunc(p+"footprint.pages", func() float64 { return float64(m.residentPages(h)) })
		r.GaugeFunc(p+"footprint.lines", func() float64 { return float64(m.residentLines(h)) })
		r.GaugeFunc(p+"footprint.bytes", func() float64 {
			return float64(m.residentLines(h) * config.LineBytes)
		})

		// CXL link directions: demand traffic volume, occupancy and queueing.
		r.GaugeFunc(p+"link.up.bytes", func() float64 { return float64(m.fabric.UpBytes(h)) })
		r.GaugeFunc(p+"link.down.bytes", func() float64 { return float64(m.fabric.DownBytes(h)) })
		r.GaugeFunc(p+"link.up.busy_ps", func() float64 {
			_, busy, _, _, _, _ := m.fabric.DebugLink(h)
			return float64(busy)
		})
		r.GaugeFunc(p+"link.down.busy_ps", func() float64 {
			_, _, _, _, busy, _ := m.fabric.DebugLink(h)
			return float64(busy)
		})
		r.GaugeFunc(p+"link.up.queue_ps", func() float64 {
			_, _, q, _, _, _ := m.fabric.DebugLink(h)
			return float64(q)
		})
		r.GaugeFunc(p+"link.down.queue_ps", func() float64 {
			_, _, _, _, _, q := m.fabric.DebugLink(h)
			return float64(q)
		})

		// Local DDR5 channels.
		r.GaugeFunc(p+"dram.busy_ps", func() float64 { return float64(hs.dram.BusyTime()) })
		r.GaugeFunc(p+"dram.reads", func() float64 { return float64(hs.dram.Stats().Reads) })
		r.GaugeFunc(p+"dram.writes", func() float64 { return float64(hs.dram.Stats().Writes) })

		// Per-host local remapping cache (hardware schemes).
		if m.mgr != nil {
			lc := m.mgr.LocalCache(h)
			r.GaugeFunc(p+"remap.local.hits", func() float64 { return float64(lc.Hits()) })
			r.GaugeFunc(p+"remap.local.misses", func() float64 { return float64(lc.Misses()) })
		}
	}
}

// residentPages reports host h's migrated pages resident in local DRAM. It
// and residentLines are the one footprint definition: the Fig 13 sampler,
// the telemetry gauges and the auditor's accounting check all read them.
func (m *Machine) residentPages(h int) int64 {
	switch {
	case m.pt != nil:
		return int64(m.pt.Resident(h))
	case m.mgr != nil:
		return int64(m.mgr.MigratedPages(h))
	}
	return 0
}

// residentLines reports host h's migrated lines resident in local DRAM.
func (m *Machine) residentLines(h int) int64 {
	switch {
	case m.pt != nil:
		return int64(m.pt.Resident(h)) * config.LinesPerPage
	case m.mgr != nil:
		return int64(m.mgr.MigratedLines(h))
	}
	return 0
}

// telemetryTick is the interval sampler: driven by the sim event heap, it
// snapshots every instrument and re-arms until the last core finishes (the
// final state is captured by Run's closing snapshot).
func (m *Machine) telemetryTick() {
	if m.liveCores == 0 {
		return
	}
	m.tel.Snapshot(m.eng.Now())
	m.eng.At(m.eng.Now()+m.telOpt.SampleInterval, m.telemetryTickFn)
}
