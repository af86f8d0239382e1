package core

import "testing"

func BenchmarkDeviceAccessVote(b *testing.B) {
	m := NewManager(Params{Hosts: 4, SharedPages: 1 << 16, Threshold: 8,
		GlobalCacheEntries: 8192, GlobalCacheWays: 8,
		LocalCacheEntries: 1 << 18, LocalCacheWays: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DeviceAccess(i&3, int64(i)&0xFFFF)
	}
}

func BenchmarkLocalLookup(b *testing.B) {
	m := NewManager(Params{Hosts: 4, SharedPages: 1 << 16, Threshold: 8,
		GlobalCacheEntries: 8192, GlobalCacheWays: 8,
		LocalCacheEntries: 1 << 18, LocalCacheWays: 8})
	for i := 0; i < 64; i++ {
		m.DeviceAccess(0, 7) // promote page 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LocalLookup(0, 7)
	}
}

// BenchmarkRemapCacheLookup probes the same 8192-page working set through
// both representations: the set-associative arrays of a cache that can
// evict, and the presence bitmap of one that cannot.
func BenchmarkRemapCacheLookup(b *testing.B) {
	for _, bc := range []struct {
		name string
		c    *RemapCache
	}{
		{"set-assoc", NewRemapCache(8192, 8, 1<<16)},
		{"presence", NewRemapCache(8192, 8, 8192)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.c.Lookup(int64(i) & 8191)
			}
		})
	}
}

func BenchmarkLocalTableInsertRemove(b *testing.B) {
	t := &NewLocalTables(1<<20, 1)[0]
	t.Insert(0, 8) // allocates the entry array
	t.Remove(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int64(i) & 0xFFFFF
		t.Insert(p, 8)
		t.Remove(p)
	}
}
