package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"pipm/internal/config"
)

func mkRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Gap:   uint32(rng.Intn(64)),
			Addr:  config.Addr(rng.Int63n(1 << 40)).LineBase(),
			Write: rng.Intn(4) == 0,
			Dep:   rng.Intn(3) == 0,
		}
	}
	return recs
}

// TestRecordSize pins the record at 16 bytes: every trace.Batch buffer and
// in-memory trace holds records by value, so a padding hole costs memory.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 16", got)
	}
}

func TestSliceReader(t *testing.T) {
	recs := mkRecords(10, 1)
	r := NewSliceReader(recs)
	for i := 0; i < 10; i++ {
		got, ok := r.Next()
		if !ok || got != recs[i] {
			t.Fatalf("record %d: got %+v ok=%v, want %+v", i, got, ok, recs[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next past end returned ok")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := mkRecords(5000, 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}

	r, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("stream ended at record %d: %v", i, r.Err())
		}
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("extra record after stream end")
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", r.Err())
	}
}

func TestBinaryCompactness(t *testing.T) {
	// Sequential scans (the common case) should encode in ≲3 bytes/record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		_ = w.Write(Record{Gap: 10, Addr: config.Addr(i * 64)})
	}
	_ = w.Flush()
	if perRec := float64(buf.Len()) / 10000; perRec > 3 {
		t.Fatalf("sequential trace encodes at %.2f bytes/record, want ≤ 3", perRec)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := NewBinaryReader(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic: err = %v, want ErrBadFormat", err)
	}
	if _, err := NewBinaryReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty stream: err = %v, want ErrBadFormat", err)
	}
	// Truncated mid-record: header present, delta missing.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Record{Gap: 1, Addr: 64})
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewBinaryReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded successfully")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported via Err")
	}
	// A gap wider than Record.Gap's 32 bits is rejected, not truncated.
	wide := binary.AppendUvarint(append(magic[:], formatVersion), (1<<32)<<2)
	wide = binary.AppendVarint(wide, 1)
	r, err = NewBinaryReader(bytes.NewReader(wide))
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := r.Next(); ok {
		t.Fatalf("33-bit gap decoded as %+v", rec)
	}
	if !errors.Is(r.Err(), ErrBadFormat) {
		t.Fatalf("33-bit gap: Err = %v, want ErrBadFormat", r.Err())
	}
}

// Property: any record sequence (with line-aligned addresses) round-trips
// through the binary format, including the dependence bit.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, lines []uint32, writes []bool, deps []bool) bool {
		n := len(gaps)
		if len(lines) < n {
			n = len(lines)
		}
		if len(writes) < n {
			n = len(writes)
		}
		if len(deps) < n {
			n = len(deps)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				Gap:   uint32(gaps[i]),
				Addr:  config.Addr(lines[i]) << config.LineShift,
				Write: writes[i],
				Dep:   deps[i],
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if w.Write(rec) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewBinaryReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range recs {
			got, ok := r.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCollect(t *testing.T) {
	c := config.Default()
	m := config.NewAddressMap(&c)
	recs := []Record{
		{Gap: 10, Addr: m.SharedAddr(0), Write: false},
		{Gap: 5, Addr: m.SharedAddr(64), Write: true},
		{Gap: 0, Addr: m.PrivateAddr(0, 0), Write: false},
		{Gap: 3, Addr: m.SharedAddr(config.PageBytes), Write: false},
	}
	s := Collect(NewSliceReader(recs), &m)
	if s.Records != 4 {
		t.Fatalf("Records = %d", s.Records)
	}
	if s.Instructions != 10+5+0+3+4 {
		t.Fatalf("Instructions = %d, want 22", s.Instructions)
	}
	if s.Reads != 3 || s.Writes != 1 {
		t.Fatalf("R/W = %d/%d, want 3/1", s.Reads, s.Writes)
	}
	if s.SharedRefs != 3 || s.PrivateRefs != 1 {
		t.Fatalf("shared/private = %d/%d, want 3/1", s.SharedRefs, s.PrivateRefs)
	}
	if s.UniquePages != 3 {
		t.Fatalf("UniquePages = %d, want 3", s.UniquePages)
	}
	if s.UniqueLines != 4 {
		t.Fatalf("UniqueLines = %d, want 4", s.UniqueLines)
	}
}
