package mem

import (
	"testing"
	"testing/quick"

	"pipm/internal/config"
	"pipm/internal/sim"
)

func testCfg() config.DRAMConfig {
	c := config.Default()
	return c.LocalDRAM
}

func TestFirstAccessIsClosedRow(t *testing.T) {
	d := New(testCfg())
	done, kind := d.AccessKind(0, 0, false)
	if kind != RowClosed {
		t.Fatalf("first access kind = %v, want row-closed", kind)
	}
	// tRCD + tCL + burst = 15 + 20 + 64B@38.4GB/s(≈1.67ns)
	bw := testCfg().ChannelBW
	want := 15*sim.Nanosecond + 20*sim.Nanosecond + sim.Time(float64(config.LineBytes)/bw*float64(sim.Second))
	if done != want {
		t.Fatalf("first access done = %v, want %v", done, want)
	}
}

func TestRowHitIsFaster(t *testing.T) {
	d := New(testCfg())
	first := d.Access(0, 0, false)
	// Same row, much later (no queueing): should be a hit with only tCL.
	start := 10 * sim.Microsecond
	done, kind := d.AccessKind(start, 64, false)
	if kind != RowHit {
		t.Fatalf("second access kind = %v, want row-hit", kind)
	}
	hitLat := done - start
	if hitLat >= first {
		t.Fatalf("row hit latency %v not faster than closed-row %v", hitLat, first)
	}
}

func TestRowConflictIsSlowest(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	// Two rows mapping to the same bank of the same channel: rows step by
	// banks*channels at row granularity.
	stride := config.Addr(rowBytes * cfg.BanksPerChan * cfg.Channels)
	d.Access(0, 0, false)
	start := 10 * sim.Microsecond
	done, kind := d.AccessKind(start, stride, false)
	if kind != RowConflict {
		t.Fatalf("conflicting access kind = %v, want row-conflict", kind)
	}
	wantMin := cfg.TRP + cfg.TRCD + cfg.TCL
	if lat := done - start; lat < wantMin {
		t.Fatalf("conflict latency %v < %v", lat, wantMin)
	}
}

func TestTRCLimitsActivateRate(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	stride := config.Addr(rowBytes * cfg.BanksPerChan * cfg.Channels)
	// Alternate between two conflicting rows back-to-back: activates to the
	// same bank must be ≥ tRC apart, so 10 accesses take ≥ 9·tRC.
	var done sim.Time
	for i := 0; i < 10; i++ {
		addr := config.Addr(i%2) * stride
		done = d.Access(done, addr, false)
	}
	if done < 9*cfg.TRC {
		t.Fatalf("10 same-bank conflicting accesses finished at %v, want ≥ %v", done, 9*cfg.TRC)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c := config.Default()
	cfg := c.CXLDRAM // 2 channels
	d := New(cfg)
	// Adjacent lines land on different channels.
	ch0, _, _ := d.route(0)
	ch1, _, _ := d.route(1)
	if ch0 == ch1 {
		t.Fatalf("adjacent lines on same channel %d", ch0)
	}
	// Parallel streams to both channels should overlap: total time for 2N
	// accesses split across channels ≲ time for 2N on one channel.
	single := New(config.DRAMConfig{Channels: 1, BanksPerChan: cfg.BanksPerChan,
		TRC: cfg.TRC, TRCD: cfg.TRCD, TCL: cfg.TCL, TRP: cfg.TRP, ChannelBW: cfg.ChannelBW})
	var doneDual, doneSingle sim.Time
	for i := 0; i < 256; i++ {
		a := config.Addr(i * config.LineBytes)
		doneDual = sim.Max(doneDual, d.Access(0, a, false))
		doneSingle = sim.Max(doneSingle, single.Access(0, a, false))
	}
	if doneDual >= doneSingle {
		t.Fatalf("dual-channel %v not faster than single-channel %v", doneDual, doneSingle)
	}
}

func TestBusSerializesBandwidth(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	// Hammer one row: all row hits, so the channel bus becomes the
	// bottleneck and throughput ≈ ChannelBW.
	d.Access(0, 0, false) // open the row
	n := 10000
	var done sim.Time
	for i := 0; i < n; i++ {
		done = d.Access(0, config.Addr(i%128*config.LineBytes), false)
	}
	bytes := float64(n * config.LineBytes)
	gbps := bytes / done.Seconds() / 1e9
	if gbps > 38.4*1.01 {
		t.Fatalf("sustained %.1f GB/s exceeds channel bandwidth", gbps)
	}
	if gbps < 30 {
		t.Fatalf("sustained %.1f GB/s, expected near 38.4 for row hits", gbps)
	}
}

func TestAccessBulkPageTransfer(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	done := d.AccessBulk(0, 0, config.PageBytes, true)
	// 4KB must take at least its serialization time at channel bandwidth.
	minSerial := sim.Time(float64(config.PageBytes) / cfg.ChannelBW * float64(sim.Second))
	if done < minSerial {
		t.Fatalf("4KB bulk write finished at %v, < serialization floor %v", done, minSerial)
	}
	if done > 10*minSerial {
		t.Fatalf("4KB bulk write took %v, suspiciously slow", done)
	}
	if d.AccessBulk(5*sim.Microsecond, 0, 0, true) != 5*sim.Microsecond {
		t.Fatal("zero-byte bulk access should be free")
	}
}

func TestStatsAndReset(t *testing.T) {
	d := New(testCfg())
	d.Access(0, 0, false)
	d.Access(0, 0, true)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats R/W = %d/%d", s.Reads, s.Writes)
	}
	if s.Hits+s.Closed+s.Conflicts != 2 {
		t.Fatalf("row outcome counts don't sum: %+v", s)
	}
	if d.BusyTime() == 0 {
		t.Fatal("BusyTime = 0 after accesses")
	}
	d.Reset()
	if d.Stats() != (Stats{}) || d.BusyTime() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestKindString(t *testing.T) {
	if RowHit.String() != "row-hit" || RowClosed.String() != "row-closed" || RowConflict.String() != "row-conflict" {
		t.Fatal("AccessKind.String mismatch")
	}
}

// Property: completion monotonically follows request time, and latency is
// bounded below by tCL+burst and above by tRP+tRCD+tCL+burst plus queueing.
func TestLatencyBoundsProperty(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	burst := sim.Time(float64(config.LineBytes) / cfg.ChannelBW * float64(sim.Second))
	now := sim.Time(0)
	f := func(lineHop uint16, gap uint8) bool {
		now += sim.Time(gap) * 100 * sim.Nanosecond // generous gaps: no queueing
		addr := config.Addr(lineHop) * config.LineBytes
		done := d.Access(now, addr, false)
		lat := done - now
		lo := cfg.TCL + burst
		hi := cfg.TRC + cfg.TRP + cfg.TRCD + cfg.TCL + burst // tRC wait worst case
		return lat >= lo && lat <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
