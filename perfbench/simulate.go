package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/machine"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/trace"
)

// outcome is what one execution of a sim measured, timed from outside the
// public machine, workload and harness calls.
type outcome struct {
	err    error
	digest string
	key    string
	instr  int64
	counts map[string]uint64 // deterministic per-layer counters

	newTime    time.Duration // machine.New
	readerTime time.Duration // Params.NewReader, all cores
	runTime    time.Duration // Machine.Run
	refTime    time.Duration // reference kernel, run just before Run

	keyTime    time.Duration // harness.KeyOf
	digestTime time.Duration // harness.DigestResult
	allocBytes uint64        // heap bytes allocated during Run
	gcCycles   uint64        // GC cycles completed during Run
	gcCPU      float64       // GC CPU seconds during Run

	// Traced executions only.
	nextTime time.Duration // self time of every reader's Next
	profile  []byte        // CPU profile of Run
}

// execute runs one simulation. The garbage collector runs before each timed
// region, never inside one. A panic inside the program is reported as a
// failed simulation, not a crash.
func execute(s job, seed int64, traced bool) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := s.wl.Validate(); err != nil {
		o.err = err
		return o
	}
	runtime.GC()

	t0 := time.Now()
	m, err := machine.New(s.cfg, s.kind)
	o.newTime = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	am := m.AddressMap()
	t0 = time.Now()
	for h := 0; h < s.cfg.Hosts; h++ {
		for c := 0; c < s.cfg.CoresPerHost; c++ {
			var r trace.Reader = s.wl.NewReader(am, s.cfg.Hosts, h, c, s.records, seed)
			if traced {
				r = &timedReader{r: r, acc: &o.nextTime}
			}
			m.SetTrace(h, c, r)
		}
	}
	o.readerTime = time.Since(t0)

	runtime.GC()
	var before, after [len(runtimeSamples)]metrics.Sample
	var prof bytes.Buffer
	o.refTime = reference()
	readRuntime(&before)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			o.err = fmt.Errorf("starting CPU profile: %w", err)
			return o
		}
		defer pprof.StopCPUProfile() // no-op unless Run panicked
	}
	t0 = time.Now()
	err = m.Run()
	o.runTime = time.Since(t0)
	if traced {
		pprof.StopCPUProfile()
		o.profile = prof.Bytes()
	}
	readRuntime(&after)
	o.allocBytes = after[0].Value.Uint64() - before[0].Value.Uint64()
	o.gcCycles = after[1].Value.Uint64() - before[1].Value.Uint64()
	o.gcCPU = after[2].Value.Float64() - before[2].Value.Float64()
	if err != nil {
		o.err = err
		return o
	}

	res := resultOf(m, s)
	t0 = time.Now()
	key := harness.KeyOf(s.cfg, s.wl, s.kind, s.records, seed)
	o.keyTime = time.Since(t0)
	t0 = time.Now()
	o.digest = harness.DigestResult(res)
	o.digestTime = time.Since(t0)
	o.key = key.String()
	o.instr = res.Instructions
	o.counts = countsOf(m)
	return o
}

// resultOf assembles the harness Result of a finished machine exactly as
// harness.RunOneOpts does, so its digest is comparable with the golden
// tiers.
func resultOf(m *machine.Machine, s job) harness.Result {
	col := m.Stats()
	sharedPages := float64(s.cfg.SharedPages())
	r := harness.Result{
		Workload:          s.wl.Name,
		Scheme:            s.kind,
		ExecTime:          m.ExecTime(),
		IPC:               m.IPC(),
		Instructions:      col.Instructions(),
		LocalHitRate:      col.LocalHitRate(),
		InterStallFrac:    col.StallFraction(stats.ClassInterHost),
		MgmtStallFrac:     col.MgmtFraction(),
		TransferFrac:      col.TransferFraction(),
		HarmfulFrac:       m.HarmfulFraction(),
		PageFootprintFrac: col.MeanPageFootprint() / sharedPages,
		LineFootprintFrac: col.MeanLineFootprint() / (sharedPages * config.LinesPerPage),
		Promotions:        col.Promotions,
		Demotions:         col.Demotions,
		LinesMoved:        col.LinesMoved,
		BytesMoved:        col.BytesMoved,
	}
	if mgr := m.Manager(); mgr != nil {
		r.GlobalRemapHitRate = mgr.GlobalCache().HitRate()
		var hits, lookups uint64
		for h := 0; h < s.cfg.Hosts; h++ {
			lc := mgr.LocalCache(h)
			hits += lc.Hits()
			lookups += lc.Hits() + lc.Misses()
		}
		if lookups > 0 {
			r.LocalRemapHitRate = float64(hits) / float64(lookups)
		}
	}
	return r
}

// countsOf reads the deterministic per-layer counters from public
// accessors after Run, keyed by ledger name. They depend only on the
// simulated inputs, so every repetition of a simulation must reproduce them
// exactly. Remap-cache hits and lookups stay raw so a sweep's hit rate is
// summed, not averaged.
func countsOf(m *machine.Machine) map[string]uint64 {
	col, f := m.Stats(), m.Fabric()
	c := map[string]uint64{
		"cxl.bytes":             f.TotalBytes(),
		"cxl.background_bytes":  f.BackgroundBytes(),
		"cxl.queue_ps":          uint64(f.QueueDelay() / sim.Picosecond),
		"migration.promotions":  col.Promotions,
		"migration.demotions":   col.Demotions,
		"migration.bytes_moved": col.BytesMoved,
	}
	for cl := 0; cl < stats.NumClasses; cl++ {
		c["served."+stats.Class(cl).String()] = col.Served(stats.Class(cl))
	}
	if mgr := m.Manager(); mgr != nil {
		ms, g := mgr.Stats(), mgr.GlobalCache()
		c["core.lines_migrated"] = ms.LinesMigrated
		c["core.promotions"] = ms.Promotions
		c["core.revocations"] = ms.Revocations
		c["core.global_remap_hits"] = g.Hits()
		c["core.global_remap_lookups"] = g.Hits() + g.Misses()
		for h := 0; h < m.Config().Hosts; h++ {
			lc := mgr.LocalCache(h)
			c["core.local_remap_hits"] += lc.Hits()
			c["core.local_remap_lookups"] += lc.Hits() + lc.Misses()
		}
	}
	return c
}

// timedReader accumulates the wall time spent inside the wrapped reader's
// Next: the workload layer's self time, nested inside Machine.Run.
type timedReader struct {
	r   trace.Reader
	acc *time.Duration
}

func (t *timedReader) Next() (trace.Record, bool) {
	t0 := time.Now()
	rec, ok := t.r.Next()
	*t.acc += time.Since(t0)
	return rec, ok
}

// runtimeSamples are the Go runtime metrics read around each Run.
var runtimeSamples = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime(s *[len(runtimeSamples)]metrics.Sample) {
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
}
