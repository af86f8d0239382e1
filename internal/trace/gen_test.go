package trace

import (
	"slices"
	"testing"
)

// TestBatch drives a fill that alternates between emitting nothing and
// emitting three records: the budget cuts the last operation short and
// empty fills are called through.
func TestBatch(t *testing.T) {
	var calls int
	var b Batch
	b = NewBatch(7, func() {
		calls++
		if calls%2 == 1 {
			return
		}
		for i := 0; i < 3; i++ {
			b.Emit(Record{Gap: uint32(calls)})
		}
	})
	var gaps []uint32
	for rec, ok := b.Next(); ok; rec, ok = b.Next() {
		gaps = append(gaps, rec.Gap)
	}
	want := []uint32{2, 2, 2, 4, 4, 4, 6}
	if !slices.Equal(gaps, want) {
		t.Fatalf("yielded %v, want %v", gaps, want)
	}
	if calls != 6 {
		t.Fatalf("fill called %d times, want 6", calls)
	}
	if _, ok := b.Next(); ok || calls != 6 {
		t.Fatal("Next past the budget yielded a record or filled again")
	}
}

// TestProfile classifies a two-core cluster's streams against one boundary.
func TestProfile(t *testing.T) {
	streams := [][]Record{
		{{Gap: 2, Addr: 0}, {Addr: 64, Write: true}, {Addr: 128}},
		{{Gap: 5, Addr: 192, Write: true}, {Addr: 256}},
	}
	s := Profile(1, 2, 128, func(host, core int) Reader { return NewSliceReader(streams[core]) })
	want := Split{Records: 5, Instructions: 12, BelowReads: 1, BelowWrites: 1, AboveReads: 2, AboveWrites: 1}
	if s != want {
		t.Fatalf("Profile = %+v, want %+v", s, want)
	}
}
