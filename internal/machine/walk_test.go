package machine

import (
	"testing"

	"pipm/internal/cache"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/trace"
)

// Focused walk-path tests: drive specific coherence and migration flows
// through tiny hand-built traces and check both the state machine and the
// latency ordering they produce.

// oneHostTrace builds a machine where only host `h` has a real trace;
// other cores get empty traces.
func attachSingle(m *Machine, h int, recs []trace.Record) {
	cfg := m.Config()
	for hh := 0; hh < cfg.Hosts; hh++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			if hh == h && c == 0 {
				m.SetTrace(hh, c, trace.NewSliceReader(recs))
			} else {
				m.SetTrace(hh, c, trace.NewSliceReader(nil))
			}
		}
	}
}

func rd(addr config.Addr) trace.Record { return trace.Record{Gap: 4, Addr: addr} }
func wr(addr config.Addr) trace.Record { return trace.Record{Gap: 4, Addr: addr, Write: true} }

func TestWriteUpgradeInvalidatesRemoteSharers(t *testing.T) {
	m := build(t, testCfg(), migration.Native)
	am := m.AddressMap()
	a := am.SharedAddr(0)
	// Host 0 reads, host 1 reads (both end S), then host 0 writes: host
	// 1's copy must invalidate. Operations are spaced by several scheduling
	// quanta so the cross-host ordering is deterministic.
	m.SetTrace(0, 0, trace.NewSliceReader([]trace.Record{rd(a), {Gap: 1 << 16, Addr: a, Write: true}}))
	m.SetTrace(1, 0, trace.NewSliceReader([]trace.Record{{Gap: 1 << 14, Addr: a}}))
	run(t, m)
	// After the run, host 1 must not hold the line.
	if st, ok := m.hosts[1].llc.Peek(a.Line()); ok && st != cache.Invalid {
		t.Fatalf("host 1 still caches the line in %v after host 0's write", st)
	}
	// Host 0 holds it dirty.
	if st, ok := m.hosts[0].llc.Peek(a.Line()); !ok || st != cache.Modified {
		t.Fatalf("host 0 state = %v, ok=%v, want M", st, ok)
	}
}

func TestOwnerForwardServesDirtyData(t *testing.T) {
	m := build(t, testCfg(), migration.Native)
	am := m.AddressMap()
	a := am.SharedAddr(64)
	// Host 0 writes (M), host 1 reads later: the device directory must
	// forward to host 0 and downgrade both to S.
	m.SetTrace(0, 0, trace.NewSliceReader([]trace.Record{wr(a)}))
	m.SetTrace(1, 0, trace.NewSliceReader([]trace.Record{{Gap: 1 << 14, Addr: a}}))
	run(t, m)
	st0, ok0 := m.hosts[0].llc.Peek(a.Line())
	st1, ok1 := m.hosts[1].llc.Peek(a.Line())
	if !ok0 || !ok1 || st0 != cache.Shared || st1 != cache.Shared {
		t.Fatalf("after forward: host0=%v/%v host1=%v/%v, want S/S", st0, ok0, st1, ok1)
	}
}

func TestGIMWriteInvalidatesOwnerCopy(t *testing.T) {
	cfg := testCfg()
	m := build(t, cfg, migration.Memtis)
	am := m.AddressMap()
	page := int64(2)
	a := am.SharedAddr(config.Addr(page) * config.PageBytes)

	var recs0 []trace.Record
	// Host 0 hammers the page so Memtis promotes it, then keeps reading.
	for i := 0; i < 40000; i++ {
		recs0 = append(recs0, rd(a+config.Addr((i%config.LinesPerPage)*config.LineBytes)))
	}
	// Host 1 writes the page remotely late in the run (well past several
	// kernel epochs so the promotion has happened).
	recs1 := []trace.Record{{Gap: 8 << 20, Addr: a, Write: true}}
	m.SetTrace(0, 0, trace.NewSliceReader(recs0))
	m.SetTrace(1, 0, trace.NewSliceReader(recs1))
	run(t, m)
	if m.Stats().Promotions == 0 {
		t.Skip("page never promoted in this configuration")
	}
	if m.Stats().Host(1).Served[stats.ClassInterHost] == 0 {
		t.Fatal("host 1's write to the migrated page was not a 4-hop access")
	}
}

func TestPIPMLocalServeIsFasterThanCXL(t *testing.T) {
	cfg := testCfg()
	m := build(t, cfg, migration.PIPM)
	am := m.AddressMap()
	// One host scans one page repeatedly with thrashing working set so
	// lines migrate and later serve locally.
	var recs []trace.Record
	pages := pageRange(0, 12) // 12 pages > 256-line LLC → eviction pressure
	for pass := 0; pass < 30; pass++ {
		for _, p := range pages {
			for l := 0; l < config.LinesPerPage; l++ {
				recs = append(recs, rd(am.SharedAddr(config.Addr(p)*config.PageBytes+config.Addr(l*config.LineBytes))))
			}
		}
	}
	attachSingle(m, 0, recs)
	run(t, m)
	col := m.Stats()
	if col.Served(stats.ClassLocalShared) == 0 {
		t.Fatal("no local serves")
	}
	localLat := col.MeanLatency(stats.ClassLocalShared)
	cxlLat := col.MeanLatency(stats.ClassCXL)
	if localLat >= cxlLat {
		t.Fatalf("local serve (%v) not faster than CXL (%v)", localLat, cxlLat)
	}
}

func TestPIPMRevocationReturnsDataCoherently(t *testing.T) {
	cfg := testCfg()
	m := build(t, cfg, migration.PIPM)
	am := m.AddressMap()
	page := int64(1)
	base := am.SharedAddr(config.Addr(page) * config.PageBytes)

	// Host 0 writes the page heavily (promote + migrate lines), then host 1
	// hammers it (revoke), then host 0 reads a line: must still see it.
	var recs0 []trace.Record
	for pass := 0; pass < 20; pass++ {
		for l := 0; l < config.LinesPerPage; l++ {
			recs0 = append(recs0, wr(base+config.Addr(l*config.LineBytes)))
		}
		// Pressure lines out of the LLC so they migrate incrementally.
		for p := int64(2); p < 10; p++ {
			for l := 0; l < config.LinesPerPage; l++ {
				recs0 = append(recs0, rd(am.SharedAddr(config.Addr(p)*config.PageBytes+config.Addr(l*config.LineBytes))))
			}
		}
	}
	var recs1 []trace.Record
	for i := 0; i < 3000; i++ {
		recs1 = append(recs1, trace.Record{Gap: 1 << 12, Addr: base + config.Addr((i%config.LinesPerPage)*config.LineBytes)})
	}
	m.SetTrace(0, 0, trace.NewSliceReader(recs0))
	m.SetTrace(1, 0, trace.NewSliceReader(recs1))
	run(t, m)
	col := m.Stats()
	if col.Promotions == 0 {
		t.Fatal("page never promoted")
	}
	if col.Demotions == 0 {
		t.Fatal("contested page never revoked")
	}
	// The manager must be consistent after revocation churn.
	mgr := m.Manager()
	for h := 0; h < cfg.Hosts; h++ {
		if mgr.MigratedPages(h) < 0 {
			t.Fatal("negative migrated pages")
		}
	}
}

func TestDependentChainsSerialize(t *testing.T) {
	cfg := testCfg()
	// Same addresses, one trace fully dependent, one fully parallel: the
	// dependent run must be much slower.
	mkRecs := func(dependent bool) []trace.Record {
		var recs []trace.Record
		for i := 0; i < 4000; i++ {
			off := config.Addr(i*64*7) % config.Addr(cfg.SharedBytes)
			recs = append(recs, trace.Record{Gap: 2, Addr: off.LineBase(), Dep: dependent})
		}
		return recs
	}
	runWith := func(dependent bool) sim.Time {
		m := build(t, cfg, migration.Native)
		am := m.AddressMap()
		recs := mkRecs(dependent)
		for i := range recs {
			recs[i].Addr = am.SharedAddr(recs[i].Addr)
		}
		attachSingle(m, 0, recs)
		run(t, m)
		return m.ExecTime()
	}
	parTime := runWith(false)
	depTime := runWith(true)
	if depTime < parTime*3 {
		t.Fatalf("dependent chain (%v) not ≫ parallel (%v)", depTime, parTime)
	}
}

func TestDeviceDirectoryBackInvalidation(t *testing.T) {
	cfg := testCfg()
	// Shrink the device directory so capacity pressure is real.
	cfg.CXL.DirSets = 4
	cfg.CXL.DirWays = 2
	cfg.CXL.DirSlices = 2
	m := build(t, cfg, migration.Native)
	am := m.AddressMap()
	// Touch far more lines than 16 directory entries.
	var recs []trace.Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, rd(am.SharedAddr(config.Addr(i*config.LineBytes)%(config.Addr(cfg.SharedBytes)))))
	}
	attachSingle(m, 0, recs)
	run(t, m) // must not panic or wedge
	if m.ExecTime() <= 0 {
		t.Fatal("no progress under directory pressure")
	}
}

func TestEvictionWritebackReachesCXL(t *testing.T) {
	cfg := testCfg()
	m := build(t, cfg, migration.Native)
	am := m.AddressMap()
	// Write a large footprint so dirty lines must leave the LLC.
	var recs []trace.Record
	for i := 0; i < 20000; i++ {
		recs = append(recs, wr(am.SharedAddr(config.Addr(i*config.LineBytes)%config.Addr(cfg.SharedBytes))))
	}
	attachSingle(m, 0, recs)
	run(t, m)
	if m.Fabric().BackgroundBytes() == 0 {
		t.Fatal("dirty evictions produced no background writeback traffic")
	}
}

func TestLocalOnlyNeverUsesFabric(t *testing.T) {
	m := build(t, testCfg(), migration.LocalOnly)
	attachContested(m, 10000)
	run(t, m)
	if m.Fabric().TotalBytes() != 0 {
		t.Fatalf("local-only moved %d bytes over CXL", m.Fabric().TotalBytes())
	}
}

func TestMigrateOnExclusiveEvictionAblation(t *testing.T) {
	// With the E-eviction extension off, a read-only partitioned workload
	// must migrate strictly fewer lines.
	lines := func(migrateE bool) uint64 {
		cfg := testCfg()
		cfg.PIPM.MigrateOnExclusiveEviction = migrateE
		m := build(t, cfg, migration.PIPM)
		am := m.AddressMap()
		var recs []trace.Record
		for pass := 0; pass < 10; pass++ {
			for p := int64(0); p < 8; p++ {
				for l := 0; l < config.LinesPerPage; l++ {
					recs = append(recs, rd(am.SharedAddr(config.Addr(p)*config.PageBytes+config.Addr(l*config.LineBytes))))
				}
			}
		}
		attachSingle(m, 0, recs)
		run(t, m)
		return m.Stats().LinesMoved
	}
	withE := lines(true)
	withoutE := lines(false)
	if withoutE >= withE {
		t.Fatalf("M-only migrated %d lines, with-E %d — extension had no effect", withoutE, withE)
	}
	if withE == 0 {
		t.Fatal("read-only workload migrated nothing even with the E extension")
	}
}

func TestStallAttributionMatchesDominantClass(t *testing.T) {
	// A CXL-bound native run must attribute most stall time to ClassCXL.
	m := build(t, testCfg(), migration.Native)
	attachPartitioned(m, 20000)
	run(t, m)
	col := m.Stats()
	cxl := col.StallFraction(stats.ClassCXL)
	for cl := stats.ClassL1Hit; cl <= stats.ClassInterHost; cl++ {
		if cl == stats.ClassCXL {
			continue
		}
		if f := col.StallFraction(cl); f > cxl {
			t.Fatalf("stall fraction of %v (%.3f) exceeds CXL's (%.3f)", cl, f, cxl)
		}
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	// Halving link bandwidth must not speed up a CXL-bound run.
	exec := func(bw float64) sim.Time {
		cfg := testCfg()
		cfg.CXL.LinkBW = bw
		m := build(t, cfg, migration.Native)
		attachPartitioned(m, 15000)
		run(t, m)
		return m.ExecTime()
	}
	if exec(2.5e9) < exec(5e9) {
		t.Fatal("lower bandwidth produced a faster run")
	}
}
