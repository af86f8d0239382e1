package coherence

import (
	"testing"

	"pipm/internal/config"
)

// Every benchmark builds Table 2's directory (16 slices × 2048 sets × 16
// ways) over a pool whose first line sits at the 1 GiB boundary. The
// set-associative layout covers the default 64 MiB heap, which puts 32
// lines in each residue class; the dense layout covers the quick sweeps'
// 4 MiB heap, which puts at most 2 there.
const (
	benchFirst  = config.Addr(1<<30) >> config.LineShift
	table2Lines = 64 << 20 / config.LineBytes
	quickLines  = 4 << 20 / config.LineBytes
)

// stride is the line distance at which Table 2 lines alias one slice and
// set.
var stride = config.Addr(config.Default().CXL.DirSlices * config.Default().CXL.DirSets)

// forLayouts runs fn as a "set-assoc" and a "dense" sub-benchmark, each on
// a fresh directory of that layout.
func forLayouts(b *testing.B, fn func(b *testing.B, d *DeviceDir, dense bool)) {
	for _, l := range []struct {
		name  string
		lines int64
		dense bool
	}{{"set-assoc", table2Lines, false}, {"dense", quickLines, true}} {
		b.Run(l.name, func(b *testing.B) {
			d := NewDeviceDir(config.Default().CXL, benchFirst, l.lines)
			if got := d.tags == nil; got != l.dense {
				b.Fatalf("%s: dense layout %v", l.name, got)
			}
			fn(b, d, l.dense)
		})
	}
}

func BenchmarkDirLookupHit(b *testing.B) {
	forLayouts(b, func(b *testing.B, d *DeviceDir, _ bool) {
		d.Update(benchFirst+42, Entry{State: DirShared, Sharers: SharerSetOf(0, 1, 3)})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Lookup(benchFirst + 42)
		}
	})
}

// BenchmarkDirLookupMiss probes for an absent line. In the set-associative
// layout its set is full, so every way's tag is compared.
func BenchmarkDirLookupMiss(b *testing.B) {
	forLayouts(b, func(b *testing.B, d *DeviceDir, dense bool) {
		absent := benchFirst + 5
		if !dense {
			ways := config.Default().CXL.DirWays
			for w := 0; w < ways; w++ {
				d.Update(benchFirst+config.Addr(w)*stride, Entry{State: DirModified, Owner: 1})
			}
			absent = benchFirst + config.Addr(ways)*stride
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Lookup(absent)
		}
	})
}

// BenchmarkDirUpdateInstall installs an absent line and removes it again,
// so every install finds a free slot.
func BenchmarkDirUpdateInstall(b *testing.B) {
	forLayouts(b, func(b *testing.B, d *DeviceDir, _ bool) {
		e := Entry{State: DirModified, Owner: 2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(benchFirst+9, e)
			d.Remove(benchFirst + 9)
		}
	})
}

// BenchmarkDirUpdateInPlace rewrites a resident entry.
func BenchmarkDirUpdateInPlace(b *testing.B) {
	forLayouts(b, func(b *testing.B, d *DeviceDir, _ bool) {
		e := [2]Entry{{State: DirModified, Owner: 2}, {State: DirShared, Sharers: SharerSetOf(0, 1, 2)}}
		d.Update(benchFirst+9, e[0])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Update(benchFirst+9, e[i&1])
		}
	})
}

// BenchmarkDirUpdateBackInval cycles 32 lines that alias one 16-way set
// of the set-associative layout, so once it fills every Update displaces
// the LRU way. The dense layout never back-invalidates.
func BenchmarkDirUpdateBackInval(b *testing.B) {
	d := NewDeviceDir(config.Default().CXL, benchFirst, table2Lines)
	e := Entry{State: DirModified, Owner: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(benchFirst+config.Addr(i&31)*stride, e)
	}
}

// BenchmarkDirRemoveSharer removes and re-adds a non-last sharer, so the
// entry stays resident.
func BenchmarkDirRemoveSharer(b *testing.B) {
	forLayouts(b, func(b *testing.B, d *DeviceDir, _ bool) {
		both := Entry{State: DirShared, Sharers: SharerSetOf(0, 0, 1)}
		d.Update(benchFirst+7, both)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.RemoveSharer(benchFirst+7, 1)
			d.Update(benchFirst+7, both)
		}
	})
}
