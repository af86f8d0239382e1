// Package config encodes the evaluated system configuration (Table 2 of the
// PIPM paper) plus the knobs the sensitivity studies sweep. A Config is a
// plain value: copy it, tweak fields, and hand it to machine.New. The zero
// value is not usable; start from Default().
package config

import (
	"fmt"

	"pipm/internal/sim"
)

// Fixed architectural granularities. These are pervasive enough (address
// splitting, bitmap widths, table formats) that making them configurable
// would only add failure modes; the paper uses the same values.
const (
	LineBytes     = 64
	PageBytes     = 4096
	LinesPerPage  = PageBytes / LineBytes // 64: one uint64 bitmap per page
	LineShift     = 6
	PageShift     = 12
	PageLineShift = PageShift - LineShift
)

// CacheConfig describes one set-associative cache level.
type CacheConfig struct {
	SizeBytes int      // total capacity
	Ways      int      // associativity
	Latency   sim.Time // round-trip hit latency
}

// Sets returns the number of sets implied by size and associativity.
func (c CacheConfig) Sets() int { return c.SizeBytes / (LineBytes * c.Ways) }

// DRAMConfig describes one group of DDR channels (a host's local DRAM or the
// CXL node's pooled DRAM).
type DRAMConfig struct {
	Channels      int
	BanksPerChan  int
	CapacityBytes int64
	// DDR timing, from Table 2's tRC-tRCD-tCL-tRP = 48-15-20-15 (ns).
	TRC  sim.Time
	TRCD sim.Time
	TCL  sim.Time
	TRP  sim.Time
	// Peak per-channel data-bus bandwidth in bytes/second
	// (DDR5-4800 ≈ 38.4 GB/s).
	ChannelBW float64
}

// CXLConfig describes the fabric between hosts and the memory node.
type CXLConfig struct {
	LinkLatency sim.Time // propagation per direction (Table 2: 50ns)
	LinkBW      float64  // bytes/second per direction (Table 2: 5 GB/s)
	SwitchHops  int      // extra store-and-forward hops (0 = direct attach)

	// Device coherence directory: Sets × Ways per slice, Slices slices.
	DirSets    int
	DirWays    int
	DirSlices  int
	DirLatency sim.Time // round-trip lookup (32 cycles @ 2 GHz = 16ns)
}

// PIPMConfig holds the parameters of the PIPM hardware.
type PIPMConfig struct {
	// MigrationThreshold is the majority-vote promotion threshold: a page is
	// partially migrated to a host once that host leads all others by this
	// many accesses. The local (revocation) counter also initializes here.
	MigrationThreshold int

	// Remapping caches. A size of 0 disables the cache (every lookup walks
	// the in-memory table); a negative size models an infinite cache.
	GlobalRemapCacheBytes int // on the CXL device (default 16 KB)
	GlobalRemapCacheWays  int
	GlobalRemapLatency    sim.Time // 4-cycle RT @ 4 GHz = 1ns
	LocalRemapCacheBytes  int      // on each host RC (default 1 MB)
	LocalRemapCacheWays   int
	LocalRemapLatency     sim.Time // 8-cycle RT @ 4 GHz = 2ns

	// MigrateOnExclusiveEviction extends the paper's Loc-WB trigger (local
	// directory state M) to E-state evictions, so read-mostly blocks also
	// migrate incrementally. See DESIGN.md §1; on by default.
	MigrateOnExclusiveEviction bool
}

// GlobalRemapEntryBytes and LocalRemapEntryBytes give the per-entry storage
// the paper's §4.4 space-overhead analysis uses, at the paper's 4-host
// (5-bit host ID) scale. Cluster configurations widen the global entry; use
// Config.GlobalRemapEntrySize for the per-config value.
const (
	GlobalRemapEntryBytes = 2 // 5b cur host + 5b cand host + 6b counter
	LocalRemapEntryBytes  = 4 // 28b local PFN + 4b counter
)

// MaxHosts is the widest supported cluster: host IDs fit 8 bits in the
// widened global remapping entry (DESIGN.md §16).
const MaxHosts = 256

// MaxWays is the widest associativity of any set-associative model: each
// set's LRU order is one 64-bit word of 4-bit way indices (cache.Recency).
const MaxWays = 16

// GlobalRemapEntrySize returns the bytes one global remapping entry costs
// at this configuration's host width: the paper's packed 2-byte entry
// (5b+5b+6b) up to 32 hosts, a 3-byte entry (8b+8b+6b+2b spare) beyond.
func (c *Config) GlobalRemapEntrySize() int {
	if c.Hosts <= 32 {
		return GlobalRemapEntryBytes
	}
	return 3
}

// KernelMigrationConfig models the software costs of page-granularity,
// kernel-based migration (Nomad, Memtis, HeMem, OS-skew).
type KernelMigrationConfig struct {
	Interval      sim.Time // policy epoch (default 10ms)
	InitiatorCost sim.Time // per-4KB cost on the initiating core (20µs)
	RemoteCost    sim.Time // per-batch TLB-shootdown cost on other cores (5µs)
	BatchPages    int      // pages migrated per batch (TLB-shootdown batching)
	MaxLocalFrac  float64  // cap on local-DRAM fraction usable for promotion
	// MaxPagesPerEpoch rate-limits migration per policy epoch, as kernel
	// migration daemons do; 0 means unlimited.
	MaxPagesPerEpoch int
}

// Config is the complete machine description.
type Config struct {
	Hosts        int
	CoresPerHost int

	// Core model (Table 2: 4 GHz, 6-wide). Table 2's 224-entry ROB and
	// 72/56-entry load/store queues are not modelled: the MSHR window
	// bounds memory-level parallelism.
	CoreHz int64
	Width  int
	MSHRs  int // outstanding L1 misses per core

	L1D CacheConfig
	LLC CacheConfig // per host, shared; SizeBytes is the per-core slice

	LocalDRAM DRAMConfig // per host
	CXLDRAM   DRAMConfig // at the memory node
	CXL       CXLConfig

	PIPM   PIPMConfig
	Kernel KernelMigrationConfig

	// SharedBytes is the size of the shared heap the workload places in
	// CXL-DSM. Generators size their data to it.
	SharedBytes int64
}

// Default returns the paper's Table 2 scaled-down configuration. The shared
// footprint defaults to a laptop-friendly size; the harness scales it.
func Default() Config {
	return Config{
		Hosts:        4,
		CoresPerHost: 4,
		CoreHz:       4_000_000_000,
		Width:        6,
		MSHRs:        8,

		L1D: CacheConfig{SizeBytes: 32 << 10, Ways: 8, Latency: sim.Nanosecond},     // 4 cyc @ 4GHz
		LLC: CacheConfig{SizeBytes: 2 << 20, Ways: 16, Latency: 6 * sim.Nanosecond}, // 24 cyc @ 4GHz
		LocalDRAM: DRAMConfig{Channels: 1, BanksPerChan: 32, CapacityBytes: 32 << 30, //nolint
			TRC: 48 * sim.Nanosecond, TRCD: 15 * sim.Nanosecond, TCL: 20 * sim.Nanosecond,
			TRP: 15 * sim.Nanosecond, ChannelBW: 38.4e9},
		CXLDRAM: DRAMConfig{Channels: 2, BanksPerChan: 32, CapacityBytes: 128 << 30,
			TRC: 48 * sim.Nanosecond, TRCD: 15 * sim.Nanosecond, TCL: 20 * sim.Nanosecond,
			TRP: 15 * sim.Nanosecond, ChannelBW: 38.4e9},
		CXL: CXLConfig{
			LinkLatency: 50 * sim.Nanosecond,
			LinkBW:      5e9,
			DirSets:     2048, DirWays: 16, DirSlices: 16,
			DirLatency: 16 * sim.Nanosecond,
		},
		PIPM: PIPMConfig{
			MigrationThreshold:         8,
			GlobalRemapCacheBytes:      16 << 10,
			GlobalRemapCacheWays:       8,
			GlobalRemapLatency:         sim.Nanosecond,
			LocalRemapCacheBytes:       1 << 20,
			LocalRemapCacheWays:        8,
			LocalRemapLatency:          2 * sim.Nanosecond,
			MigrateOnExclusiveEviction: true,
		},
		Kernel: KernelMigrationConfig{
			Interval:         10 * sim.Millisecond,
			InitiatorCost:    20 * sim.Microsecond,
			RemoteCost:       5 * sim.Microsecond,
			BatchPages:       32,
			MaxLocalFrac:     0.25,
			MaxPagesPerEpoch: 256,
		},
		SharedBytes: 64 << 20,
	}
}

// Validate reports the first structural problem with the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Hosts < 1 || c.Hosts > MaxHosts:
		return fmt.Errorf("config: Hosts = %d, want 1..%d (host IDs are 8 bits)", c.Hosts, MaxHosts)
	case c.CoresPerHost < 1:
		return fmt.Errorf("config: CoresPerHost = %d, want ≥ 1", c.CoresPerHost)
	case c.CoreHz <= 0:
		return fmt.Errorf("config: CoreHz = %d, want > 0", c.CoreHz)
	case c.Width < 1:
		return fmt.Errorf("config: Width = %d, want ≥ 1", c.Width)
	case c.MSHRs < 1:
		return fmt.Errorf("config: MSHRs = %d, want ≥ 1", c.MSHRs)
	case c.SharedBytes < PageBytes:
		return fmt.Errorf("config: SharedBytes = %d, want ≥ one page", c.SharedBytes)
	case c.SharedBytes%PageBytes != 0:
		// Generators address every line of every heap page.
		return fmt.Errorf("config: SharedBytes = %d, want a whole number of %d-byte pages", c.SharedBytes, PageBytes)
	case c.SharedPages() < int64(c.Hosts):
		// The statistical generators give each host a partition of at
		// least one page; a smaller heap leaves hosts without one.
		return fmt.Errorf("config: shared heap of %d pages is smaller than Hosts = %d, want ≥ one page per host", c.SharedPages(), c.Hosts)
	case c.SharedBytes > c.CXLDRAM.CapacityBytes:
		return fmt.Errorf("config: shared heap (%d) exceeds CXL capacity (%d)", c.SharedBytes, c.CXLDRAM.CapacityBytes)
	case c.Kernel.BatchPages < 1:
		return fmt.Errorf("config: Kernel.BatchPages = %d, want ≥ 1", c.Kernel.BatchPages)
	case c.PIPM.MigrationThreshold < 1 || c.PIPM.MigrationThreshold > 63:
		return fmt.Errorf("config: MigrationThreshold = %d, want 1..63 (global counter is 6 bits)", c.PIPM.MigrationThreshold)
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1D", c.L1D}, {"LLC", c.LLC}} {
		if cc.c.Ways < 1 || cc.c.SizeBytes < LineBytes*cc.c.Ways {
			return fmt.Errorf("config: %s: size %dB with %d ways is not a valid cache", cc.name, cc.c.SizeBytes, cc.c.Ways)
		}
		if s := cc.c.Sets(); s&(s-1) != 0 {
			return fmt.Errorf("config: %s: %d sets is not a power of two", cc.name, s)
		}
	}
	for _, dc := range []struct {
		name string
		c    DRAMConfig
	}{{"LocalDRAM", c.LocalDRAM}, {"CXLDRAM", c.CXLDRAM}} {
		if dc.c.Channels < 1 || dc.c.BanksPerChan < 1 || dc.c.ChannelBW <= 0 {
			return fmt.Errorf("config: %s: channels/banks/bandwidth must be positive", dc.name)
		}
	}
	if c.CXL.LinkBW <= 0 || c.CXL.DirSlices < 1 || c.CXL.DirSets < 1 || c.CXL.DirWays < 1 {
		return fmt.Errorf("config: CXL link/directory parameters must be positive")
	}
	for _, w := range []struct {
		name string
		ways int
	}{
		{"L1D.Ways", c.L1D.Ways}, {"LLC.Ways", c.LLC.Ways}, {"CXL.DirWays", c.CXL.DirWays},
		{"PIPM.GlobalRemapCacheWays", c.PIPM.GlobalRemapCacheWays}, {"PIPM.LocalRemapCacheWays", c.PIPM.LocalRemapCacheWays},
	} {
		if w.ways > MaxWays {
			return fmt.Errorf("config: %s = %d, want ≤ %d (one recency word orders a set)", w.name, w.ways, MaxWays)
		}
	}
	if c.CXL.SwitchHops < 0 {
		return fmt.Errorf("config: CXL.SwitchHops = %d, want ≥ 0", c.CXL.SwitchHops)
	}
	return nil
}

// TotalCores returns Hosts × CoresPerHost.
func (c *Config) TotalCores() int { return c.Hosts * c.CoresPerHost }

// SharedPages returns the number of 4 KB pages in the shared heap.
func (c *Config) SharedPages() int64 { return (c.SharedBytes + PageBytes - 1) / PageBytes }

// CoreClock returns the core clock domain.
func (c *Config) CoreClock() sim.Clock { return sim.NewClock(c.CoreHz) }

// GlobalRemapCacheEntries converts the configured global remapping cache size
// to entries (GlobalRemapEntrySize each). Negative sizes mean infinite; zero
// disables.
func (c *Config) GlobalRemapCacheEntries() int {
	if c.PIPM.GlobalRemapCacheBytes < 0 {
		return -1
	}
	return c.PIPM.GlobalRemapCacheBytes / c.GlobalRemapEntrySize()
}

// LocalRemapCacheEntries converts the configured local remapping cache size
// to entries (4 B each). Negative sizes mean infinite; zero disables.
func (c *Config) LocalRemapCacheEntries() int {
	if c.PIPM.LocalRemapCacheBytes < 0 {
		return -1
	}
	return c.PIPM.LocalRemapCacheBytes / LocalRemapEntryBytes
}
