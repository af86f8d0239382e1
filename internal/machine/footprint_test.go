package machine_test

import (
	"fmt"
	"runtime"
	"testing"

	"pipm/internal/harness"
	"pipm/internal/machine"
	"pipm/internal/migration"
)

// newBytes returns the bytes machine.New allocates for the quick
// configuration scaled to hosts.
func newBytes(t *testing.T, hosts int, k migration.Kind) uint64 {
	cfg := harness.ScaleForHosts(harness.QuickOptions().Cfg, hosts)
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
// 4 MiB heap, the device directory is one entry per heap line because no
// set can overflow, and each set's LRU order is one word. The 256-host
// PIPM and HW-static builds measured 6.8 and 11.3 MiB, the 4-host PIPM
// build 1.6 MiB; each bound is twice the larger measurement at its host
// count. The full-size layouts allocated ~1.15 GiB at 256 hosts.
func TestMachineNewFootprint(t *testing.T) {
	for _, c := range []struct {
		hosts int
		kinds []migration.Kind
		bound uint64
	}{
		{256, []migration.Kind{migration.PIPM, migration.HWStatic}, 2 * 113 << 20 / 10},
		{4, []migration.Kind{migration.PIPM}, 2 * 16 << 20 / 10},
	} {
		for _, k := range c.kinds {
			if got := newBytes(t, c.hosts, k); got > c.bound {
				t.Errorf("machine.New(%d hosts, %v) allocated %.2f MiB, bound %.2f MiB",
					c.hosts, k, float64(got)/(1<<20), float64(c.bound)/(1<<20))
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
