package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// RunKey canonically identifies one simulation: a digest of the full
// config.Config, the complete workload.Params, the scheme, the per-core
// record budget and the seed. Two runs with equal keys produce bit-identical
// Results (Run is deterministic), so the engine memoizes and deduplicates
// by key — unlike the old name-only memo, a modified Params under a reused
// name can never alias a stale result.
type RunKey [sha256.Size]byte

// String returns the key as hex, for logs and the -json emitter.
func (k RunKey) String() string { return hex.EncodeToString(k[:]) }

// Short returns the first 12 hex digits, enough to eyeball in progress lines.
func (k RunKey) Short() string { return hex.EncodeToString(k[:6]) }

// KeyOf computes the canonical run key. The encoding walks every exported
// field of cfg and wl reflectively (names + values, depth-first), so a field
// added to either struct in a future PR automatically changes the key space
// instead of silently aliasing old entries.
func KeyOf(cfg config.Config, wl workload.Params, k migration.Kind, records, seed int64) RunKey {
	return keyOf(cfg, wl, k, records, seed, telemetry.Options{}, audit.Options{})
}

// keyOf additionally folds telemetry and audit configurations into the key
// — but only when enabled. Disabled runs hash exactly as before, so every
// memoized key of a plain sweep stays valid; enabled runs get their own
// entries because the engine must keep the collected output (or the audit
// report, whose pass/fail semantics differ) alongside the Result.
func keyOf(cfg config.Config, wl workload.Params, k migration.Kind, records, seed int64,
	topt telemetry.Options, aopt audit.Options) RunKey {
	h := sha256.New()
	enc := canonEncoder{h: h}
	encodeConfig(enc, cfg)
	encodeWorkload(enc, wl)
	enc.int64("scheme", int64(k))
	enc.int64("records", records)
	enc.int64("seed", seed)
	if topt.Enabled() {
		enc.value("telemetry", reflect.ValueOf(topt))
	}
	if aopt.Enabled() {
		enc.value("audit", reflect.ValueOf(aopt))
	}
	var key RunKey
	h.Sum(key[:0])
	return key
}

// retiredConfigFields are Config fields that no longer exist, with the
// only values any run ever gave them: Table 2's ROB and load/store queue
// sizes, which the core model never read, and the per-core TLB model, which
// was off by default and which no option switched on. encodeConfig hashes
// each at its old place, right after the field named by after, so every key
// computed while they existed — memo, result store, golden fixtures — stays
// valid.
var retiredConfigFields = [...]struct {
	after string
	name  string
	value int64
}{
	{"Width", "ROB", 224},
	{"Width", "LoadQ", 72},
	{"Width", "StoreQ", 56},
	{"LLC", "TLBEntries", 0},
	{"LLC", "TLBWays", 4},
	{"LLC", "TLBWalkLatency", int64(60 * sim.Nanosecond)},
}

// encodeConfig hashes the config like enc.value("cfg", ...) would, with
// retiredConfigFields spliced in at their old places.
func encodeConfig(enc canonEncoder, cfg config.Config) {
	enc.bytes([]byte("cfg"))
	v := reflect.ValueOf(cfg)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			continue // unexported: not part of the run identity
		}
		enc.value(f.Name, v.Field(i))
		for _, r := range retiredConfigFields {
			if r.after == f.Name {
				enc.int64(r.name, r.value)
			}
		}
	}
}

// encodeWorkload hashes the workload like enc.value("workload", ...) would,
// except that the mechanistic sub-params (Serve, FS) join the stream only
// when enabled. A disabled sub-struct hashes as nothing at all, so every
// statistical preset keeps the exact key it had before the mechanistic
// family existed — the memo, the result store and the golden fixtures all
// survive the field additions — while any enabled mechanistic knob still
// changes the key. Future optional sub-generators get the same treatment by
// satisfying the optional interface below.
func encodeWorkload(enc canonEncoder, wl workload.Params) {
	enc.bytes([]byte("workload"))
	v := reflect.ValueOf(wl)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			continue // unexported: not part of the run identity
		}
		if opt, ok := v.Field(i).Interface().(interface{ Enabled() bool }); ok && !opt.Enabled() {
			continue // disabled optional generator: hashes as absent
		}
		enc.value(f.Name, v.Field(i))
	}
}

// canonNaNBits is the single quiet-NaN pattern every NaN encoding hashes
// as.
const canonNaNBits = 0x7ff8000000000000

// canonFloatBits maps semantically equal float encodings to one bit
// pattern: -0.0 hashes as +0.0 (they compare equal and no simulation can
// tell them apart) and every NaN payload collapses to canonNaNBits. Hashing
// raw Float64bits split the key space on these encodings — harmless while
// the memo died with the process, but a cache-splitter (and a
// golden-fixture landmine) once keys persist in the result store.
func canonFloatBits(f float64) uint64 {
	switch {
	case f == 0: // true for both +0.0 and -0.0
		return 0
	case f != f: // true for every NaN payload
		return canonNaNBits
	}
	return math.Float64bits(f)
}

// canonEncoder writes a canonical, self-delimiting byte stream into a hash.
// Every value is prefixed with its label so that field reordering or renaming
// also changes the key.
type canonEncoder struct {
	h hash.Hash
}

func (e canonEncoder) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	e.h.Write(n[:])
	e.h.Write(b)
}

func (e canonEncoder) int64(label string, v int64) {
	e.bytes([]byte(label))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	e.h.Write(b[:])
}

func (e canonEncoder) value(label string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		e.bytes([]byte(label))
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported: not part of the run identity
			}
			e.value(t.Field(i).Name, v.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.int64(label, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.int64(label, int64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		e.int64(label, int64(canonFloatBits(v.Float())))
	case reflect.Bool:
		b := int64(0)
		if v.Bool() {
			b = 1
		}
		e.int64(label, b)
	case reflect.String:
		e.bytes([]byte(label))
		e.bytes([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		e.bytes([]byte(label))
		e.int64("len", int64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			e.value("elem", v.Index(i))
		}
	default:
		// Maps, pointers, channels, funcs and interfaces have no canonical
		// encoding; a config or workload field of such a kind must extend
		// this encoder before it can join the run identity.
		panic(fmt.Sprintf("harness: run key cannot encode %s field %q", v.Kind(), label))
	}
}
