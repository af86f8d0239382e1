package main

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"time"

	"pipm/internal/migration"
	"pipm/internal/stats"
)

// bench runs a workload's sweep repeatedly and checks every simulation.
type bench struct {
	sims   []job
	seed   int64
	golden map[string]string

	attempted, failed int
	sweeps            []sweepStats

	// Per-sim reference from its first successful execution: every later
	// repetition must reproduce the digest and the counts exactly.
	first []*outcome
	// Instruction count per (workload, hosts): a property of the trace,
	// identical under every scheme.
	instr map[string]int64
}

// sweepStats aggregates one sweep over the successful simulations in it.
// The reader self time (next) and the CPU shares are measured only in
// traced sweeps.
type sweepStats struct {
	traced  bool
	sims    int
	records int64

	newTime, readerTime, run, ref, next, key, digest time.Duration

	famRecords      map[migration.Family]int64
	famRun, famNext map[migration.Family]time.Duration
	alloc, gcCycles uint64
	gcCPU           float64
	cpu             map[string]float64
}

// setup is the sweep's set-up time: machine.New plus NewReader.
func (sw sweepStats) setup() time.Duration { return sw.newTime + sw.readerTime }

// speed is how fast the host ran during the sweep relative to the nominal
// host: the reference kernel's nominal time over its measured time, summed
// over the calls made just before each Run.
func (sw sweepStats) speed() float64 {
	if sw.ref <= 0 {
		return 1
	}
	return float64(time.Duration(sw.sims)*refNominal) / float64(sw.ref)
}

// nominal converts a wall time measured in the sweep into the time it would
// have taken on the nominal host.
func (sw sweepStats) nominal(d time.Duration) time.Duration {
	return time.Duration(float64(d) * sw.speed())
}

// minSweeps keeps enough repetitions for a median and, when tracing, at
// least one plain and one traced sweep.
const minSweeps = 3

// run starts sweeps until d has elapsed. With trace set, plain and traced
// sweeps alternate, so the ledger and its overhead come from one process.
func (b *bench) run(d time.Duration, trace bool) {
	b.first = make([]*outcome, len(b.sims))
	b.instr = map[string]int64{}
	deadline := time.Now().Add(d)
	for rep := 0; rep < minSweeps || time.Now().Before(deadline); rep++ {
		t0 := time.Now()
		sw := b.sweep(trace && rep%2 == 1)
		fmt.Fprintf(os.Stderr, "sweep %d traced=%v: %d sims speed %.3f nominal %.0f records/s setup %.4fs (wall %.0f records/s setup %.4fs run %.3fs sweep %.3fs)\n",
			rep, sw.traced, sw.sims, sw.speed(), sw.rate(), sw.nominal(sw.setup()).Seconds(),
			sw.wallRate(), sw.setup().Seconds(), sw.run.Seconds(), time.Since(t0).Seconds())
		b.sweeps = append(b.sweeps, sw)
	}
}

// sweep executes every sim once, in workload order, so repetitions are
// interleaved across the whole sweep rather than run back to back.
func (b *bench) sweep(traced bool) sweepStats {
	sw := sweepStats{
		traced:     traced,
		famRecords: map[migration.Family]int64{},
		famRun:     map[migration.Family]time.Duration{},
		famNext:    map[migration.Family]time.Duration{},
		cpu:        map[string]float64{},
	}
	for i, s := range b.sims {
		o := execute(s, b.seed, traced)
		b.attempted++
		if err := b.check(i, &o); err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", s.name, err)
			continue
		}
		sw.sims++
		sw.records += s.total
		sw.newTime += o.newTime
		sw.readerTime += o.readerTime
		sw.run += o.runTime
		sw.ref += o.refTime
		sw.next += o.nextTime
		sw.key += o.keyTime
		sw.digest += o.digestTime
		sw.famRecords[s.family] += s.total
		sw.famRun[s.family] += o.runTime
		sw.famNext[s.family] += o.nextTime
		sw.alloc += o.allocBytes
		sw.gcCycles += o.gcCycles
		sw.gcCPU += o.gcCPU
		if traced {
			if err := addProfile(sw.cpu, o.profile); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			}
		}
	}
	return sw
}

// check applies the output checks to one execution: no run error, the
// golden digest at the golden seed, the scheme-instruction-invariance
// relation, and exact repeatability of digest and counts.
func (b *bench) check(i int, o *outcome) error {
	s := b.sims[i]
	if o.err != nil {
		return o.err
	}
	if b.seed == goldenSeed {
		want, ok := b.golden[o.key]
		switch {
		case !ok:
			return fmt.Errorf("run key %s… has no golden entry", o.key[:12])
		case want != o.digest:
			return fmt.Errorf("digest %s… != golden %s…", o.digest[:12], want[:12])
		}
	}
	group := fmt.Sprintf("%s/%d", s.wl.Name, s.cfg.Hosts)
	if want, ok := b.instr[group]; !ok {
		b.instr[group] = o.instr
	} else if o.instr != want {
		return fmt.Errorf("executed %d instructions, other schemes on %s executed %d", o.instr, group, want)
	}
	if f := b.first[i]; f == nil {
		b.first[i] = o
	} else if f.digest != o.digest {
		return fmt.Errorf("digest %s… drifted from first repetition's %s…", o.digest[:12], f.digest[:12])
	} else if !maps.Equal(f.counts, o.counts) {
		return fmt.Errorf("deterministic counts drifted from the first repetition")
	}
	return nil
}

// rate is the sweep's throughput on the nominal host: records over the
// nominal seconds spent in Run.
func (sw sweepStats) rate() float64 {
	if sw.run <= 0 {
		return 0
	}
	return float64(sw.records) / sw.nominal(sw.run).Seconds()
}

// wallRate is the sweep's throughput in wall seconds, unscaled.
func (sw sweepStats) wallRate() float64 {
	if sw.run <= 0 {
		return 0
	}
	return float64(sw.records) / sw.run.Seconds()
}

// sweepMedian is the median of f over the sweeps whose traced flag matches.
func (b *bench) sweepMedian(traced bool, f func(sweepStats) float64) float64 {
	var xs []float64
	for _, sw := range b.sweeps {
		if sw.traced == traced && sw.sims > 0 {
			xs = append(xs, f(sw))
		}
	}
	return median(xs)
}

// endToEndMetrics reports the untraced sweeps. Each sweep's throughput is
// its records over its summed Run time, and set-up is its summed New and
// NewReader time, both in nominal-host seconds; the run reports the median
// sweep of each.
func (b *bench) endToEndMetrics() map[string]metric {
	return map[string]metric{
		"nominal_records_per_s": {b.sweepMedian(false, sweepStats.rate), "1/s"},
		"setup_s": {b.sweepMedian(false, func(sw sweepStats) float64 {
			return sw.nominal(sw.setup()).Seconds()
		}), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// layerMetrics reports the per-layer ledger from the traced sweeps, each
// metric the median over those sweeps, plus the tracing overhead against
// the interleaved plain sweeps of the same process.
func (b *bench) layerMetrics() map[string]metric {
	ms := map[string]metric{}
	med := func(f func(sweepStats) float64) float64 { return b.sweepMedian(true, f) }
	perRecord := func(d func(sweepStats) time.Duration) float64 {
		return med(func(sw sweepStats) float64 { return float64(sw.nominal(d(sw)).Nanoseconds()) / float64(sw.records) })
	}
	perSim := func(d func(sweepStats) time.Duration) float64 {
		return med(func(sw sweepStats) float64 { return float64(sw.nominal(d(sw)).Nanoseconds()) / 1e3 / float64(sw.sims) })
	}

	ms["host.speed"] = metric{med(sweepStats.speed), "ratio"}
	ms["host.wall_records_per_s"] = metric{med(sweepStats.wallRate), "1/s"}
	ms["workload.setup_ms"] = metric{med(func(sw sweepStats) float64 { return ms1(sw.nominal(sw.readerTime)) }), "ms"}
	ms["workload.ns_per_record"] = metric{perRecord(func(sw sweepStats) time.Duration { return sw.next }), "ns"}
	ms["machine.setup_ms"] = metric{med(func(sw sweepStats) float64 { return ms1(sw.nominal(sw.newTime)) }), "ms"}
	ms["machine.ns_per_record"] = metric{perRecord(func(sw sweepStats) time.Duration { return sw.run - sw.next }), "ns"}
	for _, f := range []migration.Family{migration.FamilyNative, migration.FamilyKernel,
		migration.FamilyHardware, migration.FamilyLocalOnly} {
		v := med(func(sw sweepStats) float64 {
			if sw.famRecords[f] == 0 {
				return 0 // the workload's scheme mix has no scheme of this family
			}
			return float64(sw.nominal(sw.famRun[f]-sw.famNext[f]).Nanoseconds()) / float64(sw.famRecords[f])
		})
		ms["machine."+f.String()+".ns_per_record"] = metric{v, "ns"}
	}
	for _, bucket := range cpuBuckets {
		v := med(func(sw sweepStats) float64 {
			var total float64
			for _, x := range sw.cpu {
				total += x
			}
			if total == 0 {
				return 0
			}
			return sw.cpu[bucket] / total
		})
		ms["cpu."+bucket] = metric{v, "share"}
	}
	ms["harness.key_us"] = metric{perSim(func(sw sweepStats) time.Duration { return sw.key }), "us"}
	ms["harness.digest_us"] = metric{perSim(func(sw sweepStats) time.Duration { return sw.digest }), "us"}
	ms["runtime.alloc_bytes_per_record"] = metric{med(func(sw sweepStats) float64 {
		return float64(sw.alloc) / float64(sw.records)
	}), "B"}
	ms["runtime.gc_cycles"] = metric{med(func(sw sweepStats) float64 { return float64(sw.gcCycles) }), "count"}
	ms["runtime.gc_cpu_s"] = metric{med(func(sw sweepStats) float64 { return sw.gcCPU }), "s"}

	plain, traced := b.sweepMedian(false, sweepStats.rate), med(sweepStats.rate)
	overhead := 0.0
	if plain > 0 {
		overhead = 100 * (1 - traced/plain)
	}
	ms["trace.overhead_pct"] = metric{overhead, "%"}
	ms["trace.records_per_s"] = metric{traced, "1/s"}

	// Deterministic counts, summed over one repetition of the sweep: each
	// simulation's first execution (later ones are identical or failed).
	total := map[string]uint64{}
	for _, o := range b.first {
		if o != nil {
			for k, v := range o.counts {
				total[k] += v
			}
		}
	}
	for name, unit := range countUnits {
		ms[name] = metric{float64(total[name]), unit}
	}
	for cl := 0; cl < stats.NumClasses; cl++ {
		name := "served." + stats.Class(cl).String()
		ms[name] = metric{float64(total[name]), "count"}
	}
	ms["cxl.queue_ns"] = metric{float64(total["cxl.queue_ps"]) / 1e3, "ns"}
	for _, cache := range []string{"local", "global"} {
		rate := 0.0
		if n := total["core."+cache+"_remap_lookups"]; n > 0 {
			rate = float64(total["core."+cache+"_remap_hits"]) / float64(n)
		}
		ms["core."+cache+"_remap_hit_rate"] = metric{rate, "ratio"}
	}
	return ms
}

func ms1(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// countUnits are the counters reported as summed, with their units.
var countUnits = map[string]string{
	"cxl.bytes":             "B",
	"cxl.background_bytes":  "B",
	"core.lines_migrated":   "count",
	"core.promotions":       "count",
	"core.revocations":      "count",
	"migration.promotions":  "count",
	"migration.demotions":   "count",
	"migration.bytes_moved": "B",
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
