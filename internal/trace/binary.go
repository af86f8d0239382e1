package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pipm/internal/config"
)

// Binary stream format, one stream per core:
//
//	magic   [4]byte  "PIPT"
//	version uvarint  (1)
//	records:
//	  header uvarint: gap<<2 | dep<<1 | write
//	  delta  varint:  signed line-address delta from the previous record,
//	                  in cache-line units (traces are strongly local, so
//	                  deltas are small); low 6 bits of the byte offset are
//	                  carried in a following uvarint only when nonzero is
//	                  impossible — we round addresses to line granularity,
//	                  which is all the timing model observes.
//
// Line-delta encoding keeps real traces ~3 bytes/record.

var magic = [4]byte{'P', 'I', 'P', 'T'}

const formatVersion = 1

// ErrBadFormat reports a malformed or truncated trace stream.
var ErrBadFormat = errors.New("trace: bad stream format")

// Writer encodes records to an io.Writer.
type Writer struct {
	w        *bufio.Writer
	prevLine int64
	started  bool
	buf      [2 * binary.MaxVarintLen64]byte
	count    int64
}

// NewWriter returns a Writer emitting the stream header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], formatVersion)
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. Addresses are stored at line granularity.
func (w *Writer) Write(rec Record) error {
	head := uint64(rec.Gap) << 2
	if rec.Dep {
		head |= 2
	}
	if rec.Write {
		head |= 1
	}
	n := binary.PutUvarint(w.buf[:], head)
	line := int64(rec.Addr.Line())
	delta := line - w.prevLine
	if !w.started {
		delta = line
		w.started = true
	}
	w.prevLine = line
	n += binary.PutVarint(w.buf[n:], delta)
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.count }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// BinaryReader decodes a stream produced by Writer. It implements Reader.
type BinaryReader struct {
	r        *bufio.Reader
	prevLine int64
	started  bool
	err      error
}

// NewBinaryReader validates the header and returns a reader positioned at
// the first record.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return &BinaryReader{r: br}, nil
}

// Next implements Reader. After the stream ends or errors, ok is false;
// check Err to distinguish clean EOF from corruption.
func (b *BinaryReader) Next() (Record, bool) {
	if b.err != nil {
		return Record{}, false
	}
	head, err := binary.ReadUvarint(b.r)
	if err != nil {
		if err != io.EOF {
			b.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		return Record{}, false
	}
	if head>>2 > math.MaxUint32 {
		b.err = fmt.Errorf("%w: gap %d does not fit 32 bits", ErrBadFormat, head>>2)
		return Record{}, false
	}
	delta, err := binary.ReadVarint(b.r)
	if err != nil {
		b.err = fmt.Errorf("%w: truncated record: %v", ErrBadFormat, err)
		return Record{}, false
	}
	line := delta
	if b.started {
		line = b.prevLine + delta
	} else {
		b.started = true
	}
	if line < 0 {
		b.err = fmt.Errorf("%w: negative line address", ErrBadFormat)
		return Record{}, false
	}
	b.prevLine = line
	return Record{
		Gap:   uint32(head >> 2),
		Addr:  config.Addr(line) << config.LineShift,
		Write: head&1 == 1,
		Dep:   head&2 == 2,
	}, true
}

// Err returns the first decoding error encountered, or nil on clean EOF.
func (b *BinaryReader) Err() error { return b.err }
