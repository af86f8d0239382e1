package config

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pipm/internal/sim"
)

func TestDefaultIsValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	// Spot-check the Table 2 values the rest of the system depends on.
	if c.Hosts != 4 || c.CoresPerHost != 4 {
		t.Errorf("hosts×cores = %d×%d, want 4×4", c.Hosts, c.CoresPerHost)
	}
	if c.Width != 6 || c.MSHRs != 8 {
		t.Errorf("core = %d-wide/%d MSHRs", c.Width, c.MSHRs)
	}
	if c.L1D.SizeBytes != 32<<10 || c.L1D.Ways != 8 {
		t.Errorf("L1D = %dB %d-way", c.L1D.SizeBytes, c.L1D.Ways)
	}
	if got := c.CoreClock().ToCycles(c.L1D.Latency); got != 4 {
		t.Errorf("L1 latency = %d cycles, want 4", got)
	}
	if got := c.CoreClock().ToCycles(c.LLC.Latency); got != 24 {
		t.Errorf("LLC latency = %d cycles, want 24", got)
	}
	if c.CXL.LinkLatency != 50*sim.Nanosecond || c.CXL.LinkBW != 5e9 {
		t.Errorf("CXL link = %v/%.0f", c.CXL.LinkLatency, c.CXL.LinkBW)
	}
	if c.CXL.DirSets != 2048 || c.CXL.DirWays != 16 || c.CXL.DirSlices != 16 {
		t.Errorf("device dir = %d set %d way %d slices", c.CXL.DirSets, c.CXL.DirWays, c.CXL.DirSlices)
	}
	if c.PIPM.MigrationThreshold != 8 {
		t.Errorf("threshold = %d, want 8", c.PIPM.MigrationThreshold)
	}
	if c.PIPM.GlobalRemapCacheBytes != 16<<10 || c.PIPM.LocalRemapCacheBytes != 1<<20 {
		t.Errorf("remap caches = %d/%d", c.PIPM.GlobalRemapCacheBytes, c.PIPM.LocalRemapCacheBytes)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero hosts", func(c *Config) { c.Hosts = 0 }},
		{"too many hosts", func(c *Config) { c.Hosts = MaxHosts + 1 }},
		{"zero cores", func(c *Config) { c.CoresPerHost = 0 }},
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"zero mshrs", func(c *Config) { c.MSHRs = 0 }},
		{"tiny shared", func(c *Config) { c.SharedBytes = 100 }},
		{"fewer shared pages than hosts", func(c *Config) { c.Hosts = 4; c.SharedBytes = 2 * PageBytes }},
		{"partial last page", func(c *Config) { c.SharedBytes = 64*PageBytes + 1 }},
		{"one page, 256 hosts", func(c *Config) { c.Hosts = MaxHosts; c.SharedBytes = PageBytes }},
		{"shared exceeds pool", func(c *Config) { c.SharedBytes = c.CXLDRAM.CapacityBytes + 1 }},
		{"bad l1 ways", func(c *Config) { c.L1D.Ways = 0 }},
		{"non-pow2 sets", func(c *Config) { c.LLC.SizeBytes = 3 << 20 }},
		{"zero channels", func(c *Config) { c.LocalDRAM.Channels = 0 }},
		{"zero link bw", func(c *Config) { c.CXL.LinkBW = 0 }},
		{"negative switch hops", func(c *Config) { c.CXL.SwitchHops = -1 }},
		{"zero batch", func(c *Config) { c.Kernel.BatchPages = 0 }},
		{"threshold too big", func(c *Config) { c.PIPM.MigrationThreshold = 64 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
	// A set's LRU order is one word of MaxWays nibbles; wider sets must
	// fail naming the field.
	wide := []struct {
		field string
		mut   func(*Config)
	}{
		{"L1D.Ways", func(c *Config) { c.L1D.Ways = MaxWays * 2; c.L1D.SizeBytes *= 2 }},
		{"LLC.Ways", func(c *Config) { c.LLC.Ways = MaxWays * 2 }},
		{"CXL.DirWays", func(c *Config) { c.CXL.DirWays = MaxWays + 1 }},
		{"PIPM.GlobalRemapCacheWays", func(c *Config) { c.PIPM.GlobalRemapCacheWays = MaxWays + 1 }},
		{"PIPM.LocalRemapCacheWays", func(c *Config) { c.PIPM.LocalRemapCacheWays = MaxWays + 1 }},
	}
	for _, w := range wide {
		c := Default()
		w.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), w.field+" = ") {
			t.Errorf("%s above %d: Validate returned %v, want an error naming the field", w.field, MaxWays, err)
		}
	}
	// Exactly MaxWays everywhere is legal.
	c := Default()
	c.L1D.Ways, c.LLC.Ways, c.CXL.DirWays = MaxWays, MaxWays, MaxWays
	c.PIPM.GlobalRemapCacheWays, c.PIPM.LocalRemapCacheWays = MaxWays, MaxWays
	if err := c.Validate(); err != nil {
		t.Errorf("%d ways everywhere: Validate rejected a legal config: %v", MaxWays, err)
	}
}

// TestValidateHostRange exercises the cluster host range, including both
// representation boundaries: 32→33 widens the global remapping entry from
// the paper's packed 2 bytes to 3, and 64→65 switches the directory sharer
// set from the exact bitmask to the region-summary form (DESIGN.md §16).
func TestValidateHostRange(t *testing.T) {
	for _, hosts := range []int{1, 2, 4, 16, 32, 33, 64, 65, 128, 255, 256} {
		c := Default()
		c.Hosts = hosts
		if err := c.Validate(); err != nil {
			t.Errorf("Hosts=%d: Validate rejected a legal cluster: %v", hosts, err)
		}
	}
	// The smallest legal heap is one page per host.
	for _, hosts := range []int{1, 2, 4, 64, 256} {
		c := Default()
		c.Hosts = hosts
		c.SharedBytes = int64(hosts) * PageBytes
		if err := c.Validate(); err != nil {
			t.Errorf("Hosts=%d with %d shared pages: Validate rejected a legal heap: %v", hosts, hosts, err)
		}
	}
	for _, hosts := range []int{-1, 0, 257, 1024} {
		c := Default()
		c.Hosts = hosts
		if err := c.Validate(); err == nil {
			t.Errorf("Hosts=%d: Validate accepted an out-of-range cluster", hosts)
		}
	}
}

func TestGlobalRemapEntrySizeBoundaries(t *testing.T) {
	c := Default()
	for _, tc := range []struct{ hosts, want int }{
		{1, 2}, {32, 2}, {33, 3}, {64, 3}, {65, 3}, {256, 3},
	} {
		c.Hosts = tc.hosts
		if got := c.GlobalRemapEntrySize(); got != tc.want {
			t.Errorf("Hosts=%d: GlobalRemapEntrySize = %d, want %d", tc.hosts, got, tc.want)
		}
	}
	// The paper-scale entry keeps the cache entry count — and with it every
	// 4-host golden digest — unchanged.
	c.Hosts = 4
	if got := c.GlobalRemapCacheEntries(); got != (16<<10)/2 {
		t.Errorf("4-host global cache entries = %d, want %d", got, (16<<10)/2)
	}
	c.Hosts = 256
	if got := c.GlobalRemapCacheEntries(); got != (16<<10)/3 {
		t.Errorf("256-host global cache entries = %d, want %d", got, (16<<10)/3)
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 << 10, Ways: 8}
	if got := c.Sets(); got != 64 {
		t.Fatalf("32KB 8-way: Sets() = %d, want 64", got)
	}
	llc := CacheConfig{SizeBytes: 2 << 20, Ways: 16}
	if got := llc.Sets(); got != 2048 {
		t.Fatalf("2MB 16-way: Sets() = %d, want 2048", got)
	}
}

func TestRemapCacheEntries(t *testing.T) {
	c := Default()
	if got := c.GlobalRemapCacheEntries(); got != (16<<10)/2 {
		t.Fatalf("global entries = %d, want %d", got, (16<<10)/2)
	}
	if got := c.LocalRemapCacheEntries(); got != (1<<20)/4 {
		t.Fatalf("local entries = %d, want %d", got, (1<<20)/4)
	}
	c.PIPM.GlobalRemapCacheBytes = -1
	if got := c.GlobalRemapCacheEntries(); got != -1 {
		t.Fatalf("infinite cache = %d entries, want -1", got)
	}
	c.PIPM.LocalRemapCacheBytes = 0
	if got := c.LocalRemapCacheEntries(); got != 0 {
		t.Fatalf("disabled cache = %d entries, want 0", got)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.Line() != 0x12345>>6 {
		t.Errorf("Line() = %#x", uint64(a.Line()))
	}
	if a.Page() != 0x12 {
		t.Errorf("Page() = %#x, want 0x12", uint64(a.Page()))
	}
	if a.PageBase() != 0x12000 {
		t.Errorf("PageBase() = %#x, want 0x12000", uint64(a.PageBase()))
	}
	if a.LineBase() != 0x12340 {
		t.Errorf("LineBase() = %#x, want 0x12340", uint64(a.LineBase()))
	}
	if got := a.LineInPage(); got != 0xD {
		t.Errorf("LineInPage() = %d, want 13", got)
	}
}

func TestAddressMapRegions(t *testing.T) {
	c := Default()
	m := NewAddressMap(&c)

	// Private windows map to the right host.
	for h := 0; h < c.Hosts; h++ {
		a := m.PrivateAddr(h, 4096)
		kind, owner := m.Region(a)
		if kind != RegionPrivate || owner != h {
			t.Fatalf("PrivateAddr(%d): Region = %v/%d", h, kind, owner)
		}
	}

	// Shared addresses classify as shared.
	a := m.SharedAddr(0)
	if kind, _ := m.Region(a); kind != RegionShared {
		t.Fatalf("SharedAddr(0): Region = %v", kind)
	}
	last := m.SharedAddr(Addr(c.SharedBytes - 1))
	if kind, _ := m.Region(last); kind != RegionShared {
		t.Fatalf("last shared byte: Region = %v", kind)
	}

	// One past the end is invalid.
	if kind, _ := m.Region(last + 1); kind != RegionInvalid {
		t.Fatalf("past-the-end: Region = %v, want invalid", kind)
	}

	// Page indexing round-trips.
	p := m.SharedAddr(5 * PageBytes)
	if idx := m.SharedPageIndex(p); idx != 5 {
		t.Fatalf("SharedPageIndex = %d, want 5", idx)
	}
}

func TestAddressMapPanics(t *testing.T) {
	c := Default()
	m := NewAddressMap(&c)
	for name, fn := range map[string]func(){
		"shared out of range":  func() { m.SharedAddr(Addr(c.SharedBytes)) },
		"bad host":             func() { m.PrivateAddr(c.Hosts, 0) },
		"private out of range": func() { m.PrivateAddr(0, Addr(c.LocalDRAM.CapacityBytes)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every shared offset classifies as shared, and private/shared
// ranges never overlap.
func TestAddressMapDisjointProperty(t *testing.T) {
	c := Default()
	m := NewAddressMap(&c)
	f := func(off uint32, h uint8) bool {
		so := Addr(off) % Addr(c.SharedBytes)
		sa := m.SharedAddr(so)
		kind, _ := m.Region(sa)
		if kind != RegionShared {
			return false
		}
		host := int(h) % c.Hosts
		po := Addr(off) % Addr(c.LocalDRAM.CapacityBytes)
		pa := m.PrivateAddr(host, po)
		k2, owner := m.Region(pa)
		return k2 == RegionPrivate && owner == host && pa != sa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionKindString(t *testing.T) {
	if RegionPrivate.String() != "private" || RegionShared.String() != "shared" || RegionInvalid.String() != "invalid" {
		t.Fatal("RegionKind.String mismatch")
	}
}

func TestSharedPages(t *testing.T) {
	c := Default()
	c.SharedBytes = 10*PageBytes + 1
	if got := c.SharedPages(); got != 11 {
		t.Fatalf("SharedPages = %d, want 11", got)
	}
}

func TestSplitSharedPages(t *testing.T) {
	c := Default()
	c.SharedBytes = 1024 * PageBytes
	m := NewAddressMap(&c)
	cases := []struct {
		name    string
		weights []float64
		want    []int64
	}{
		{"even halves", []float64{1, 1}, []int64{512, 512}},
		{"three quarters", []float64{0.75, 0.25}, []int64{768, 256}},
		{"daxfs eighth", []float64{0.125, 0.875}, []int64{128, 896}},
		{"single", []float64{1}, []int64{1024}},
		{"zero weight", []float64{0, 1}, []int64{0, 1024}},
		{"all zero splits evenly", []float64{0, 0}, []int64{512, 512}},
		{"negative counts as zero", []float64{-3, 1}, []int64{0, 1024}},
	}
	for _, tc := range cases {
		got := m.SplitSharedPages(tc.weights...)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %v parts", tc.name, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// Property: any weight vector carves into non-negative parts that sum exactly
// to SharedPages.
func TestSplitSharedPagesExactProperty(t *testing.T) {
	c := Default()
	m := NewAddressMap(&c)
	f := func(a, b, cc uint16, pages uint8) bool {
		cfg := Default()
		cfg.SharedBytes = (1 + int64(pages)) * PageBytes
		mm := NewAddressMap(&cfg)
		parts := mm.SplitSharedPages(float64(a), float64(b), float64(cc))
		var sum int64
		for _, p := range parts {
			if p < 0 {
				return false
			}
			sum += p
		}
		return sum == mm.SharedPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if got := m.SplitSharedPages(math.NaN(), math.Inf(1), 1); got[0] != 0 || got[1] != 0 {
		t.Fatalf("non-finite weights should count as zero, got %v", got)
	}
}

func TestSplitSharedPagesPanicsOnEmpty(t *testing.T) {
	c := Default()
	m := NewAddressMap(&c)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.SplitSharedPages()
}
