package coherence

import (
	"testing"

	"pipm/internal/config"
)

// table2Dir builds the Table 2 directory geometry (16 slices × 2048 sets ×
// 16 ways) and returns it with its way count and the line stride at which
// addresses alias one slice and set.
func table2Dir() (d *DeviceDir, ways int, stride config.Addr) {
	cfg := config.Default().CXL
	return NewDeviceDir(cfg, anyLines), cfg.DirWays, config.Addr(cfg.DirSlices * cfg.DirSets)
}

func BenchmarkDirLookupHit(b *testing.B) {
	d, _, _ := table2Dir()
	d.Update(42, Entry{State: DirShared, Sharers: SharerSetOf(0, 1, 3)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(42)
	}
}

// BenchmarkDirLookupMiss probes a full set for an absent line, so every
// way's tag is compared.
func BenchmarkDirLookupMiss(b *testing.B) {
	d, ways, stride := table2Dir()
	for w := 0; w < ways; w++ {
		d.Update(config.Addr(w)*stride, Entry{State: DirModified, Owner: 1})
	}
	absent := config.Addr(ways) * stride
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(absent)
	}
}

// BenchmarkDirUpdateBackInval installs lines that all alias one set, so
// once it fills every Update displaces the LRU way.
func BenchmarkDirUpdateBackInval(b *testing.B) {
	d, _, stride := table2Dir()
	e := Entry{State: DirModified, Owner: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(config.Addr(i)*stride, e)
	}
}

// BenchmarkDirRemoveSharer removes and re-adds a non-last sharer, so the
// entry stays resident.
func BenchmarkDirRemoveSharer(b *testing.B) {
	d, _, _ := table2Dir()
	both := Entry{State: DirShared, Sharers: SharerSetOf(0, 0, 1)}
	d.Update(7, both)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RemoveSharer(7, 1)
		d.Update(7, both)
	}
}
