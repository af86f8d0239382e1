package trace

import "pipm/internal/config"

// Batch is the record loop every per-core generator shares: it yields at
// most the record budget, calling fill for the next operation's records
// whenever the buffered ones run out. A generator embeds a Batch, built by
// NewBatch over its fill method, and fill emits through Emit; a fill that
// emits nothing is simply called again. Records emitted past the budget
// are never returned.
type Batch struct {
	fill   func()
	buf    []Record
	pos    int
	remain int64
}

// NewBatch returns a Batch yielding at most records records from fill.
func NewBatch(records int64, fill func()) Batch {
	return Batch{fill: fill, remain: records}
}

// Next implements Reader.
func (b *Batch) Next() (Record, bool) {
	if b.remain <= 0 {
		return Record{}, false
	}
	for b.pos >= len(b.buf) {
		b.buf = b.buf[:0]
		b.pos = 0
		b.fill()
	}
	rec := b.buf[b.pos]
	b.pos++
	b.remain--
	return rec, true
}

// Emit appends one record to the operation being filled.
func (b *Batch) Emit(rec Record) { b.buf = append(b.buf, rec) }

// CoreSeed folds (seed, salt, host, core) into the seed of one core's
// Source. Generators that share a run seed keep independent streams through
// distinct salts; changing a salt changes every stream of its generator.
func CoreSeed(seed, salt int64, host, core int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(int64(host)*1_000_003+int64(core)*7919+salt)*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int64(x & (1<<62 - 1))
}

// Scramble maps a popularity rank in [0, n) to an index with a fixed
// multiplicative permutation, so hot items spread across a region instead
// of clustering at its start. The mapping is the same on every host: a hot
// key is hot for everyone.
func Scramble(rank, n int64) int64 {
	const prime = 2654435761 // Knuth multiplicative hash
	return (rank*prime + n/2) % n
}

// Split is the profile of a multi-core trace classified against one
// address boundary: loads and stores below it and at or above it.
type Split struct {
	Records      int64
	Instructions int64 // Gap sums + one per memory op
	BelowReads   int64
	BelowWrites  int64
	AboveReads   int64
	AboveWrites  int64
}

// Profile drains newReader(host, core) for every core of a hosts × cores
// cluster and classifies each access against boundary. Given the readers a
// simulation consumes, the profile is exactly the trace that run executes.
func Profile(hosts, cores int, boundary config.Addr, newReader func(host, core int) Reader) Split {
	var s Split
	for h := 0; h < hosts; h++ {
		for c := 0; c < cores; c++ {
			r := newReader(h, c)
			for rec, ok := r.Next(); ok; rec, ok = r.Next() {
				s.Records++
				s.Instructions += int64(rec.Gap) + 1
				switch below := rec.Addr < boundary; {
				case below && rec.Write:
					s.BelowWrites++
				case below:
					s.BelowReads++
				case rec.Write:
					s.AboveWrites++
				default:
					s.AboveReads++
				}
			}
		}
	}
	return s
}
