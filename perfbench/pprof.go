package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the ledger's CPU-share buckets, in report order: the
// simulator's layers (its internal packages), the trace generators, the
// benchmark's own timing wrapper, and the Go runtime split into garbage
// collection and everything else.
var cpuBuckets = []string{
	"machine", "cache", "coherence", "core", "migration", "tlb", "cxl", "mem", "sim", "stats",
	"workload", "bench", "runtime_gc", "runtime_other", "other",
}

// packageBucket maps a simulator package to its ledger bucket. The
// mechanistic generators and the trace codec belong to the workload layer.
var packageBucket = map[string]string{
	"machine": "machine", "cache": "cache", "coherence": "coherence", "core": "core",
	"migration": "migration", "tlb": "tlb", "cxl": "cxl", "mem": "mem", "sim": "sim",
	"stats": "stats", "workload": "workload", "llmserve": "workload", "daxfs": "workload",
	"trace": "workload",
}

// gcFrames mark a runtime stack as garbage-collection work: background
// marking, assists, sweeping and scavenging.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.markroot",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.scanobject",
}

// bucketOf attributes one sample's stack (leaf first) to a bucket. A
// standard-library leaf (math/rand, time) is charged to the nearest
// simulator or benchmark frame that called it; a runtime leaf stays with the
// runtime unless that nearest frame is the benchmark's own timing wrapper.
func bucketOf(stack []string) string {
	caller := "other"
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			caller = "bench"
			break
		}
		if rest, ok := strings.CutPrefix(f, "pipm/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if b, ok := packageBucket[pkg]; ok {
				caller = b
			}
			break
		}
	}
	if len(stack) == 0 || !isRuntime(stack[0]) || caller == "bench" {
		return caller
	}
	for _, f := range stack {
		for _, g := range gcFrames {
			if f == g {
				return "runtime_gc"
			}
		}
	}
	return "runtime_other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// addProfile decodes one gzipped pprof CPU profile and adds each sample's
// CPU nanoseconds to its bucket. It reads only the fields it needs:
// samples, locations, functions and the string table.
func addProfile(into map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		samples  [][]byte
		strs     []string
		funcName = map[uint64]uint64{}   // function id → name string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		var locs, vals []uint64
		err := fields(s, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendVarints(locs, v, b)
			case 2:
				vals = appendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, name(fn))
			}
		}
		// Go CPU profiles carry (samples, cpu nanoseconds).
		into[bucketOf(stack)] += float64(vals[len(vals)-1])
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either as
// one varint (b == nil) or packed into a length-delimited payload.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field number and
// its varint value or (for length-delimited fields) its payload.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = varint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
