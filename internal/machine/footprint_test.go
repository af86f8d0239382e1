package machine_test

import (
	"fmt"
	"runtime"
	"testing"

	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/machine"
	"pipm/internal/migration"
)

// newBytes returns the bytes machine.New allocates for cfg.
func newBytes(t *testing.T, cfg config.Config, k migration.Kind) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := machine.New(cfg, k)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMachineNewFootprint bounds what building a machine allocates. Every
// set-associative structure is sized to what it can hold (DESIGN.md
// §16.3): the 1 MB local remapping caches are presence bitmaps over the
// 4 MiB heap, the device directory is one packed 10-byte slot per heap
// line because no set can overflow, each set's LRU order is one word, and
// all hosts' local remapping entries share one page-indexed store. The
// 256-host PIPM and HW-static builds measured 5.82 and 5.84 MiB, the 4-host
// PIPM build 0.72 MiB; each bound is 1.25× the larger measurement at its
// host count (7.30 and 0.90 MiB), so per-host radix leaves coming back
// (10.33 MiB at 256 hosts) would fail it. Table 2's 4-host PIPM build over
// the 64 MiB heap, whose directory stays set-associative (524,288 ways of
// 18 bytes with their tags), measured 13.79 MiB; its bound, 16 MiB, is
// below the 20.77 MiB the same build took with 24-byte directory entries.
// The full-size layouts allocated ~1.15 GiB at 256 hosts.
func TestMachineNewFootprint(t *testing.T) {
	quick := harness.QuickOptions().Cfg
	for _, c := range []struct {
		name  string
		cfg   config.Config
		kinds []migration.Kind
		bound uint64
	}{
		{"256 hosts", harness.ScaleForHosts(quick, 256), []migration.Kind{migration.PIPM, migration.HWStatic}, 125 * 584 << 20 / 10000},
		{"4 hosts", harness.ScaleForHosts(quick, 4), []migration.Kind{migration.PIPM}, 125 * 72 << 20 / 10000},
		{"Table 2", config.Default(), []migration.Kind{migration.PIPM}, 16 << 20},
	} {
		for _, k := range c.kinds {
			if got := newBytes(t, c.cfg, k); got > c.bound {
				t.Errorf("machine.New(%s, %v) allocated %.2f MiB, bound %.2f MiB",
					c.name, k, float64(got)/(1<<20), float64(c.bound)/(1<<20))
			}
		}
	}
}

// BenchmarkMachineNew measures machine set-up for PIPM, HW-static and
// Native across cluster sizes; -benchmem reports the build's allocation
// volume (DESIGN.md §16.3's table).
func BenchmarkMachineNew(b *testing.B) {
	for _, k := range []migration.Kind{migration.PIPM, migration.HWStatic, migration.Native} {
		for _, hosts := range []int{4, 64, 256} {
			cfg := harness.ScaleForHosts(harness.QuickOptions().Cfg, hosts)
			b.Run(fmt.Sprintf("%v/%dh", k, hosts), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := machine.New(cfg, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
