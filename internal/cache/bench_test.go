package cache

import (
	"math/rand"
	"testing"

	"pipm/internal/config"
)

// llc is the default per-host LLC geometry: 2048 sets × 16 ways.
var llc = config.CacheConfig{SizeBytes: 2 << 20, Ways: 16}

// BenchmarkLookupHit hits the most recent way: Touch returns at once.
func BenchmarkLookupHit(b *testing.B) {
	c := New(llc)
	c.Fill(42, Shared)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(42)
	}
}

// BenchmarkLookupHitLRU cycles through the 16 lines of one full set, so
// every lookup hits the least recent way and Touch moves all 16 ranks.
func BenchmarkLookupHitLRU(b *testing.B) {
	c := New(llc)
	sets := config.Addr(llc.Sets())
	for w := config.Addr(0); w < 16; w++ {
		c.Fill(w*sets, Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(config.Addr(i&15) * sets)
	}
}

// BenchmarkLookupFillMixed replays a seeded uniform stream over twice the
// LLC's capacity, filling on every miss: about half the lookups hit a way
// at any rank and the rest evict the LRU way of a full set.
func BenchmarkLookupFillMixed(b *testing.B) {
	c := New(llc)
	capacity := llc.SizeBytes / config.LineBytes
	rng := rand.New(rand.NewSource(1))
	stream := make([]config.Addr, 1<<16)
	for i := range stream {
		stream[i] = config.Addr(rng.Intn(2 * capacity))
	}
	for _, l := range stream {
		c.Fill(l, Exclusive)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := stream[i&(len(stream)-1)]
		if _, ok := c.Lookup(l); !ok {
			c.Fill(l, Exclusive)
		}
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := New(config.CacheConfig{SizeBytes: 32 << 10, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(config.Addr(i), Exclusive)
	}
}

func BenchmarkInvalidatePage(b *testing.B) {
	c := New(llc)
	for l := config.Addr(0); l < config.LinesPerPage; l++ {
		c.Fill(l, Modified)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InvalidatePage(0, nil)
	}
}
