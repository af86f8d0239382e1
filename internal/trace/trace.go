// Package trace defines the memory-reference trace format the simulator
// consumes. A trace is one record stream per simulated core; each record is
// a count of non-memory instructions followed by one memory operation. The
// format mirrors what a Pin-style tool would capture (§5.1.2 of the paper),
// minus instruction bytes the timing model does not need.
package trace

import "pipm/internal/config"

// Record is one memory operation preceded by Gap non-memory instructions.
// The fields are ordered widest first so a record packs into 16 bytes.
type Record struct {
	Addr  config.Addr // unified physical address of the access
	Gap   uint32      // non-memory instructions retired before this op
	Write bool        // store (true) or load (false)
	// Dep marks an address-dependent operation (pointer chase): it cannot
	// issue until the previous memory op completes. Dependence is what
	// bounds real memory-level parallelism on graph and database codes.
	Dep bool
}

// Reader yields the records of one core's stream in program order.
// Implementations must be deterministic: two passes over the same reader
// construction yield identical streams.
type Reader interface {
	// Next returns the next record. ok is false at end of stream.
	Next() (rec Record, ok bool)
}

// SliceReader replays an in-memory record slice.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader returns a Reader over recs. The slice is not copied.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (r *SliceReader) Next() (Record, bool) {
	if r.pos >= len(r.recs) {
		return Record{}, false
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, true
}

// Stats summarizes a record stream.
type Stats struct {
	Records      int64
	Instructions int64 // Gap sums + one per memory op
	Reads        int64
	Writes       int64
	SharedRefs   int64
	PrivateRefs  int64
	UniquePages  int
	UniqueLines  int
}

// Collect drains r and accumulates stream statistics. The address map, when
// non-nil, is used to split shared from private references.
func Collect(r Reader, m *config.AddressMap) Stats {
	var s Stats
	pages := make(map[config.Addr]struct{})
	lines := make(map[config.Addr]struct{})
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		s.Records++
		s.Instructions += int64(rec.Gap) + 1
		if rec.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		if m != nil {
			if kind, _ := m.Region(rec.Addr); kind == config.RegionShared {
				s.SharedRefs++
			} else {
				s.PrivateRefs++
			}
		}
		pages[rec.Addr.Page()] = struct{}{}
		lines[rec.Addr.Line()] = struct{}{}
	}
	s.UniquePages = len(pages)
	s.UniqueLines = len(lines)
	return s
}
