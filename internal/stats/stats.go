// Package stats collects the measurements the paper's evaluation reports:
// execution time and IPC, where memory accesses were served (the Fig. 11
// local-hit-rate ledger), stall-time attribution by access class (Fig. 12),
// migration-management and transfer overheads (Fig. 4), and local-memory
// footprint sampling (Fig. 13).
package stats

import (
	"fmt"
	"strings"

	"pipm/internal/sim"
)

// Class labels where a memory access was served from.
type Class uint8

const (
	ClassL1Hit Class = iota
	ClassLLCHit
	ClassLocalPrivate // host-local DRAM, private data
	ClassLocalShared  // host-local DRAM, migrated shared data (a "local hit")
	ClassCXL          // CXL pool, ≤2 hops, cacheable
	ClassInterHost    // another host's DRAM: 4-hop GIM or owner-forwarded
	numClasses
)

// NumClasses is the number of service classes, for per-class instrument
// arrays outside this package.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case ClassL1Hit:
		return "l1-hit"
	case ClassLLCHit:
		return "llc-hit"
	case ClassLocalPrivate:
		return "local-private"
	case ClassLocalShared:
		return "local-shared"
	case ClassCXL:
		return "cxl"
	case ClassInterHost:
		return "inter-host"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// HostStats aggregates per-host measurements.
type HostStats struct {
	Instructions int64
	MemOps       int64
	FinishTime   sim.Time

	Served [numClasses]uint64
	// LatSum accumulates service latency per class (divide by Served for
	// the mean).
	LatSum [numClasses]sim.Time

	// Stall time attributed to the class of the access that was blocking
	// the core when the issue window filled.
	Stall [numClasses]sim.Time

	// Management stalls injected by kernel-based migration.
	MgmtStall sim.Time
	// Initiator-side page-copy stall (synchronous kernel migration).
	TransferStall sim.Time

	// Footprint sampling (time-weighted sums; divide by SampleWeight).
	PageFootprintSum int64 // migrated pages resident × samples
	LineFootprintSum int64 // migrated lines resident × samples
	Samples          int64
}

// MeanLat returns the host's mean service latency for class cl: LatSum is a
// raw sum and must never be reported directly — divide by Served, returning
// 0 when the class served nothing.
func (h *HostStats) MeanLat(cl Class) sim.Time {
	if h.Served[cl] == 0 {
		return 0
	}
	return h.LatSum[cl] / sim.Time(h.Served[cl])
}

// Collector is the per-run measurement sink.
type Collector struct {
	Hosts []HostStats
	// CoresPerHost normalizes stall fractions (total core time is
	// FinishTime × CoresPerHost per host). Defaults to 1.
	CoresPerHost int

	// Migration event counters (machine-level).
	Promotions uint64 // pages promoted (kernel) or partially migrated (PIPM)
	Demotions  uint64
	LinesMoved uint64 // incremental line migrations (PIPM family)
	BytesMoved uint64 // explicit migration data transfer bytes
}

// New returns a collector for the given host count.
func New(hosts int) *Collector {
	return &Collector{Hosts: make([]HostStats, hosts), CoresPerHost: 1}
}

// Host returns the mutable per-host record.
func (c *Collector) Host(h int) *HostStats { return &c.Hosts[h] }

// ExecTime is the run's makespan: the latest core finish time.
func (c *Collector) ExecTime() sim.Time {
	var t sim.Time
	for i := range c.Hosts {
		t = sim.Max(t, c.Hosts[i].FinishTime)
	}
	return t
}

// Instructions sums instructions across hosts.
func (c *Collector) Instructions() int64 {
	var n int64
	for i := range c.Hosts {
		n += c.Hosts[i].Instructions
	}
	return n
}

// IPC is aggregate instructions per core-cycle given the core clock.
func (c *Collector) IPC(clock sim.Clock, cores int) float64 {
	t := c.ExecTime()
	if t <= 0 || cores <= 0 {
		return 0
	}
	cycles := float64(clock.ToCycles(t)) * float64(cores)
	if cycles == 0 {
		return 0
	}
	return float64(c.Instructions()) / cycles
}

// MeanLatency returns the average service latency of a class across hosts.
func (c *Collector) MeanLatency(cl Class) sim.Time {
	var sum sim.Time
	var n uint64
	for i := range c.Hosts {
		sum += c.Hosts[i].LatSum[cl]
		n += c.Hosts[i].Served[cl]
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// Served sums a class counter across hosts.
func (c *Collector) Served(cl Class) uint64 {
	var n uint64
	for i := range c.Hosts {
		n += c.Hosts[i].Served[cl]
	}
	return n
}

// LocalHitRate is Fig. 11's metric: the fraction of shared-data memory
// accesses (those that left the cache hierarchy) served by the requester's
// local DRAM rather than CXL memory or another host's memory.
func (c *Collector) LocalHitRate() float64 {
	local := c.Served(ClassLocalShared)
	total := local + c.Served(ClassCXL) + c.Served(ClassInterHost)
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}

// StallFraction reports class-attributed stall time as a fraction of total
// core time (hosts × makespan is approximated by summing per-host finish
// times, matching Fig. 12's "normalized to total execution time").
func (c *Collector) StallFraction(cl Class) float64 {
	var stall, total sim.Time
	for i := range c.Hosts {
		stall += c.Hosts[i].Stall[cl]
		total += c.Hosts[i].FinishTime * sim.Time(c.CoresPerHost)
	}
	if total == 0 {
		return 0
	}
	return float64(stall) / float64(total)
}

// MgmtFraction reports management stalls over total core time (Fig. 4).
func (c *Collector) MgmtFraction() float64 {
	var stall, total sim.Time
	for i := range c.Hosts {
		stall += c.Hosts[i].MgmtStall
		total += c.Hosts[i].FinishTime * sim.Time(c.CoresPerHost)
	}
	if total == 0 {
		return 0
	}
	return float64(stall) / float64(total)
}

// TransferFraction reports initiator page-copy stalls over total core time.
func (c *Collector) TransferFraction() float64 {
	var stall, total sim.Time
	for i := range c.Hosts {
		stall += c.Hosts[i].TransferStall
		total += c.Hosts[i].FinishTime * sim.Time(c.CoresPerHost)
	}
	if total == 0 {
		return 0
	}
	return float64(stall) / float64(total)
}

// SampleFootprint records a footprint observation for host h.
func (c *Collector) SampleFootprint(h int, pages, lines int64) {
	hs := &c.Hosts[h]
	hs.PageFootprintSum += pages
	hs.LineFootprintSum += lines
	hs.Samples++
}

// MeanPageFootprint returns the time-averaged migrated-page count per host,
// averaged across hosts.
func (c *Collector) MeanPageFootprint() float64 { return c.meanFootprint(true) }

// MeanLineFootprint returns the time-averaged migrated-line count per host,
// averaged across hosts.
func (c *Collector) MeanLineFootprint() float64 { return c.meanFootprint(false) }

func (c *Collector) meanFootprint(pages bool) float64 {
	var sum float64
	n := 0
	for i := range c.Hosts {
		hs := &c.Hosts[i]
		if hs.Samples == 0 {
			continue
		}
		v := hs.LineFootprintSum
		if pages {
			v = hs.PageFootprintSum
		}
		sum += float64(v) / float64(hs.Samples)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary renders a human-readable digest.
func (c *Collector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec=%v instr=%d", c.ExecTime(), c.Instructions())
	for cl := Class(0); cl < numClasses; cl++ {
		if n := c.Served(cl); n > 0 {
			// Mean latency, not the raw LatSum: the sum scales with run
			// length and reads as nonsense in a digest.
			fmt.Fprintf(&b, " %s=%d(%v)", cl, n, c.MeanLatency(cl))
		}
	}
	fmt.Fprintf(&b, " localHit=%.1f%%", 100*c.LocalHitRate())
	if c.Promotions+c.Demotions > 0 {
		fmt.Fprintf(&b, " promo=%d demo=%d", c.Promotions, c.Demotions)
	}
	return b.String()
}
