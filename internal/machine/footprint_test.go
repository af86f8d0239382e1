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

// TestMachineNewFootprint bounds what building a 256-host hardware-family
// machine allocates. Every set-associative structure is sized to what it
// can hold (DESIGN.md §16.3): the 1 MB local remapping caches are presence
// bitmaps over the 4 MiB heap, the device directory stores only the ways
// the heap's lines can occupy, and each set's LRU order is one word. A
// build measured 10.3–14.8 MiB; the bound is twice the larger. The
// full-size layouts allocated ~1.15 GiB here.
func TestMachineNewFootprint(t *testing.T) {
	const bound = 2 * 15 << 20
	for _, k := range []migration.Kind{migration.PIPM, migration.HWStatic} {
		if got := newBytes(t, 256, k); got > bound {
			t.Errorf("machine.New(256 hosts, %v) allocated %.1f MiB, bound %.1f MiB",
				k, float64(got)/(1<<20), float64(bound)/(1<<20))
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
