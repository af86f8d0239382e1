// Package silo is a miniature in-memory store in the spirit of Silo (the
// paper's database substrate for TPC-C and YCSB): a hash directory plus a
// fixed-size record heap laid out in the simulated machine's shared
// CXL-DSM, with operation generators that *execute* YCSB point operations
// and TPC-C-style transactions and emit every memory access they make.
// Like internal/gapbs for the graph kernels, this is the mechanistic
// counterpart to the statistical tpcc/ycsb workload models.
package silo

import (
	"fmt"

	"pipm/internal/config"
	"pipm/internal/trace"
)

// RecordLines is the record payload size in cache lines (128 B records).
const RecordLines = 2

// Store describes the shared-heap layout:
//
//	buckets [R]   hash directory, 8 B per bucket         offset 0
//	records [R]   RecordLines×64 B payload each          offset 8R (line-aligned)
//
// The directory is hashed — every host reads it uniformly, so its pages are
// genuinely contested. Records are partitioned into warehouses: warehouse w
// owns a contiguous record block, and each host is home to an equal share
// of warehouses (the TPC-C association).
type Store struct {
	am         config.AddressMap
	records    int64
	hosts      int
	warehouses int64
}

// NewStore sizes a store to the shared heap: records are allocated until
// heap capacity, leaving room for the directory.
func NewStore(am config.AddressMap, hosts int, warehouses int64) (*Store, error) {
	if hosts < 1 || warehouses < int64(hosts) {
		return nil, fmt.Errorf("silo: need ≥1 host and ≥hosts warehouses")
	}
	perRecord := int64(8 + RecordLines*config.LineBytes)
	records := int64(am.SharedBytes()) / perRecord
	if records < warehouses {
		return nil, fmt.Errorf("silo: heap too small for %d warehouses", warehouses)
	}
	// Round to a warehouse multiple so partitions are equal.
	records -= records % warehouses
	return &Store{am: am, records: records, hosts: hosts, warehouses: warehouses}, nil
}

// Records returns the record count.
func (s *Store) Records() int64 { return s.records }

func (s *Store) bucketAddr(key int64) config.Addr {
	// Multiplicative hash: directory accesses spread uniformly.
	h := uint64(key) * 0x9E3779B97F4A7C15
	b := int64(h % uint64(s.records))
	return s.am.SharedAddr(config.Addr(b * 8))
}

func (s *Store) recordAddr(key int64, line int) config.Addr {
	base := config.Addr(s.records*8) + config.Addr(key)*RecordLines*config.LineBytes
	// Align the record heap to a line boundary.
	base = (base + config.LineBytes - 1) &^ (config.LineBytes - 1)
	return s.am.SharedAddr(base + config.Addr(line*config.LineBytes))
}

// homeWarehouses returns host h's warehouse range.
func (s *Store) homeWarehouses(h int) (lo, hi int64) {
	lo = int64(h) * s.warehouses / int64(s.hosts)
	hi = int64(h+1) * s.warehouses / int64(s.hosts)
	return lo, hi
}

// keyIn picks a zipf-ish key within warehouse w.
func (s *Store) keyIn(w int64, z *trace.Zipf) int64 {
	per := s.records / s.warehouses
	off := int64(z.Uint64()) % per
	// Spread hot ranks across the warehouse block.
	off = (off * 2654435761) % per
	return w*per + off
}

// Op selects the operation mix a reader executes.
type Op uint8

const (
	// YCSB: independent point reads/updates, zipf keys over the whole
	// store (hot keys hot for every host), R:W 4:1.
	YCSB Op = iota
	// TPCC: multi-record transactions against a home warehouse (85%) or a
	// remote one (15%), with order-line appends — the classic mix.
	TPCC
)

func (o Op) String() string {
	if o == YCSB {
		return "ycsb"
	}
	return "tpcc"
}

// NewReader returns a trace reader executing the op mix as host h / core c
// (cores per host given by cores), up to records trace records.
func (s *Store) NewReader(o Op, h, c, cores int, records, seed int64) trace.Reader {
	if h < 0 || h >= s.hosts {
		panic(fmt.Sprintf("silo: host %d out of range", h))
	}
	rng := trace.NewSource(seed ^ int64(h)<<24 ^ int64(c)<<12 ^ int64(o))
	r := &opReader{s: s, host: h, rng: rng, zipf: trace.NewZipf(rng, 1.05, s.records/s.warehouses)}
	fill := r.tpccTxn
	if o == YCSB {
		fill = r.ycsbOp
	}
	r.Batch = trace.NewBatch(records, fill)
	return r
}

type opReader struct {
	trace.Batch

	s    *Store
	host int

	rng  *trace.Source
	zipf *trace.Zipf

	nextOrderLine int64 // per-reader append cursor for TPC-C inserts
}

// ycsbOp executes one point operation: directory probe, then a dependent
// record access; 20% of operations update the record.
func (r *opReader) ycsbOp() {
	w := r.rng.Int63n(r.s.warehouses) // whole store: hot keys global
	key := r.s.keyIn(w, r.zipf)
	update := r.rng.Intn(5) == 0
	r.emit(r.s.bucketAddr(key), false, false, 12)
	for l := 0; l < RecordLines; l++ {
		r.emit(r.s.recordAddr(key, l), update && l == 0, true, 8)
	}
}

// tpccTxn executes one transaction: 85% against a home warehouse, reading
// an order record, read-modify-writing several stock records, and
// appending order-lines into the home partition.
func (r *opReader) tpccTxn() {
	lo, hi := r.s.homeWarehouses(r.host)
	w := lo + r.rng.Int63n(hi-lo)
	if r.rng.Intn(100) < 15 {
		w = r.rng.Int63n(r.s.warehouses) // remote warehouse
	}
	// Order read.
	key := r.s.keyIn(w, r.zipf)
	r.emit(r.s.bucketAddr(key), false, false, 20)
	r.emit(r.s.recordAddr(key, 0), false, true, 10)

	// Stock read-modify-write, 4–8 items.
	items := 4 + r.rng.Intn(5)
	for i := 0; i < items; i++ {
		k := r.s.keyIn(w, r.zipf)
		r.emit(r.s.bucketAddr(k), false, false, 10)
		r.emit(r.s.recordAddr(k, 0), false, true, 6)
		r.emit(r.s.recordAddr(k, 0), true, true, 6)
	}

	// Order-line append: sequential writes into the home partition.
	per := r.s.records / r.s.warehouses
	home := lo + (r.nextOrderLine/per)%(hi-lo)
	olKey := home*per + r.nextOrderLine%per
	r.nextOrderLine++
	for l := 0; l < RecordLines; l++ {
		r.emit(r.s.recordAddr(olKey, l), true, false, 6)
	}
}

func (r *opReader) emit(addr config.Addr, write, dep bool, gapMean int) {
	gap := uint32(r.rng.Intn(gapMean*2 + 1))
	r.Emit(trace.Record{Gap: gap, Addr: addr, Write: write, Dep: dep})
}
