package harness

import (
	"crypto/sha256"
	"math"
	"reflect"
	"testing"

	"pipm/internal/llmserve"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/workload"
)

func TestRunKeyStableForEqualInputs(t *testing.T) {
	o := QuickOptions()
	wl := o.Workloads[0]
	k1 := KeyOf(o.Cfg, wl, migration.PIPM, 1000, 1)
	k2 := KeyOf(o.Cfg, wl, migration.PIPM, 1000, 1)
	if k1 != k2 {
		t.Fatal("equal inputs produced different keys")
	}
	if k1.String() == "" || k1.Short() == "" || len(k1.String()) != 64 {
		t.Fatalf("bad key rendering: %q / %q", k1.String(), k1.Short())
	}
}

func TestRunKeySensitiveToEveryComponent(t *testing.T) {
	o := QuickOptions()
	wl := o.Workloads[0]
	base := KeyOf(o.Cfg, wl, migration.PIPM, 1000, 1)

	// Scheme, records, seed.
	if KeyOf(o.Cfg, wl, migration.Native, 1000, 1) == base {
		t.Error("scheme change did not change the key")
	}
	if KeyOf(o.Cfg, wl, migration.PIPM, 2000, 1) == base {
		t.Error("records change did not change the key")
	}
	if KeyOf(o.Cfg, wl, migration.PIPM, 1000, 2) == base {
		t.Error("seed change did not change the key")
	}

	// Arbitrary config fields, including nested ones.
	cfg := o.Cfg
	cfg.Kernel.Interval += sim.Microsecond
	if KeyOf(cfg, wl, migration.PIPM, 1000, 1) == base {
		t.Error("Kernel.Interval change did not change the key")
	}
	cfg = o.Cfg
	cfg.PIPM.MigrationThreshold++
	if KeyOf(cfg, wl, migration.PIPM, 1000, 1) == base {
		t.Error("MigrationThreshold change did not change the key")
	}
	cfg = o.Cfg
	cfg.CXL.LinkBW *= 2
	if KeyOf(cfg, wl, migration.PIPM, 1000, 1) == base {
		t.Error("CXL.LinkBW change did not change the key")
	}

	// Workload params under the same name — the bug the old name-keyed
	// memo had.
	hot := wl
	hot.ZipfS = wl.ZipfS + 1.5
	if KeyOf(o.Cfg, hot, migration.PIPM, 1000, 1) == base {
		t.Error("ZipfS change under the same workload name did not change the key")
	}
	rot := wl
	rot.RotateEvery = 500
	if KeyOf(o.Cfg, rot, migration.PIPM, 1000, 1) == base {
		t.Error("RotateEvery change under the same workload name did not change the key")
	}
}

// TestRunKeyFloatCanonicalization: float encodings no simulation can
// distinguish must hash identically, or the persistent store splits its key
// space (−0.0 configs would never hit entries saved under +0.0), while
// genuinely different values must still produce different keys.
func TestRunKeyFloatCanonicalization(t *testing.T) {
	o := QuickOptions()
	wl := o.Workloads[0]

	negZero := math.Copysign(0, -1)
	posWL, negWL := wl, wl
	posWL.OwnFrac = 0
	negWL.OwnFrac = negZero
	if KeyOf(o.Cfg, posWL, migration.PIPM, 1000, 1) != KeyOf(o.Cfg, negWL, migration.PIPM, 1000, 1) {
		t.Error("-0.0 and 0.0 produced different run keys")
	}

	// Every NaN payload is one key. Build a second NaN bit pattern
	// explicitly: quiet NaN with a different payload.
	nan1, nan2 := math.NaN(), math.Float64frombits(0x7ff8000000000042)
	if !math.IsNaN(nan2) {
		t.Fatal("test bug: 0x7ff8000000000042 is not a NaN")
	}
	nanWL1, nanWL2 := wl, wl
	nanWL1.OwnFrac = nan1
	nanWL2.OwnFrac = nan2
	if KeyOf(o.Cfg, nanWL1, migration.PIPM, 1000, 1) != KeyOf(o.Cfg, nanWL2, migration.PIPM, 1000, 1) {
		t.Error("two NaN payloads produced different run keys")
	}

	// Sanity: canonicalization must not merge distinct values.
	if KeyOf(o.Cfg, posWL, migration.PIPM, 1000, 1) == KeyOf(o.Cfg, nanWL1, migration.PIPM, 1000, 1) {
		t.Error("0.0 and NaN collapsed to one key")
	}
	small := wl
	small.OwnFrac = 1e-300
	if KeyOf(o.Cfg, posWL, migration.PIPM, 1000, 1) == KeyOf(o.Cfg, small, migration.PIPM, 1000, 1) {
		t.Error("0.0 and 1e-300 collapsed to one key")
	}

	// The bit-level helper, exhaustively over the interesting encodings.
	if canonFloatBits(0) != 0 || canonFloatBits(negZero) != 0 {
		t.Error("canonFloatBits does not collapse zeros")
	}
	if canonFloatBits(nan1) != canonNaNBits || canonFloatBits(nan2) != canonNaNBits {
		t.Error("canonFloatBits does not collapse NaNs")
	}
	for _, f := range []float64{1.0, -1.0, 0.08, 5e9, math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		if canonFloatBits(f) != math.Float64bits(f) {
			t.Errorf("canonFloatBits perturbed ordinary value %g", f)
		}
	}
}

func TestRunKeyRejectsUnencodableKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a map-typed value")
		}
	}()
	enc := canonEncoder{h: discardHash{}}
	enc.value("bad", reflect.ValueOf(map[string]int{"a": 1}))
}

// discardHash satisfies hash.Hash for the panic-path test.
type discardHash struct{}

func (discardHash) Write(p []byte) (int, error) { return len(p), nil }
func (discardHash) Sum(b []byte) []byte         { return b }
func (discardHash) Reset()                      {}
func (discardHash) Size() int                   { return 0 }
func (discardHash) BlockSize() int              { return 1 }

// TestSameNameDifferentZipfS is the regression test for the old name-only
// memo: two workloads sharing a Name but differing in ZipfS must execute as
// two distinct runs and produce different results.
func TestSameNameDifferentZipfS(t *testing.T) {
	o := QuickOptions()
	o.RecordsPerCore = 5_000
	s := NewSuite(o)
	wl := o.Workloads[0]
	hot := wl
	hot.ZipfS = wl.ZipfS + 1.5

	r1, err := s.run.Get(s.req(o.Cfg, wl, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.run.Get(s.req(o.Cfg, hot, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.RunStats()); got != 2 {
		t.Fatalf("expected 2 executed runs for same-name workloads, got %d", got)
	}
	if r1.ExecTime == r2.ExecTime {
		t.Fatalf("same-name workloads with different ZipfS returned identical exec time %v", r1.ExecTime)
	}
}

func TestRunRequestKeyMatchesKeyOf(t *testing.T) {
	o := QuickOptions()
	wl, err := workload.ByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	req := RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.PIPM, Records: 123, Seed: 7}
	if req.Key() != KeyOf(o.Cfg, wl, migration.PIPM, 123, 7) {
		t.Fatal("RunRequest.Key disagrees with KeyOf")
	}
}

// legacyWorkloadMirror is the workload.Params field set as it stood before
// the mechanistic Serve/FS sub-params existed. TestRunKeyLegacyEncodingStable
// encodes it with the generic struct walker and demands the production
// encoder emit the same key for a statistical preset — the property that
// keeps every persisted store entry and golden fixture valid across the
// field additions. If a field is ever added to workload.Params without the
// Enabled() gating, this mirror (intentionally) goes stale and the test
// fails, forcing a decision about key compatibility.
type legacyWorkloadMirror struct {
	Name        string
	Suite       string
	Footprint   int64
	SharedFrac  float64
	OwnFrac     float64
	SpillFrac   float64
	ZipfS       float64
	RunLen      float64
	WriteFrac   float64
	GapMean     int
	DepFrac     float64
	RotateEvery int64
}

func TestRunKeyLegacyEncodingStable(t *testing.T) {
	o := QuickOptions()
	for _, wl := range workload.Catalog() {
		mirror := legacyWorkloadMirror{
			Name: wl.Name, Suite: wl.Suite, Footprint: wl.Footprint,
			SharedFrac: wl.SharedFrac, OwnFrac: wl.OwnFrac, SpillFrac: wl.SpillFrac,
			ZipfS: wl.ZipfS, RunLen: wl.RunLen, WriteFrac: wl.WriteFrac,
			GapMean: wl.GapMean, DepFrac: wl.DepFrac, RotateEvery: wl.RotateEvery,
		}
		legacy := sha256.New()
		enc := canonEncoder{h: legacy}
		encodeConfig(enc, o.Cfg)
		enc.value("workload", reflect.ValueOf(mirror))
		enc.int64("scheme", int64(migration.PIPM))
		enc.int64("records", int64(1000))
		enc.int64("seed", 1)
		var want RunKey
		legacy.Sum(want[:0])
		if got := KeyOf(o.Cfg, wl, migration.PIPM, 1000, 1); got != want {
			t.Fatalf("%s: key diverged from the pre-mechanistic encoding", wl.Name)
		}
	}
}

// Enabled mechanistic params must join the key: same name, different knob ⇒
// different key, and enabling either generator changes the key at all.
func TestRunKeyMechanisticParamsJoin(t *testing.T) {
	o := QuickOptions()
	serve, err := workload.ByName("llmserve")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := workload.ByName("daxfs")
	if err != nil {
		t.Fatal(err)
	}
	plain := serve
	plain.Serve = llmserve.Params{}
	base := KeyOf(o.Cfg, serve, migration.PIPM, 1000, 1)
	if KeyOf(o.Cfg, plain, migration.PIPM, 1000, 1) == base {
		t.Error("enabling Serve did not change the key")
	}
	hot := serve
	hot.Serve.MigrateFrac += 0.25
	if KeyOf(o.Cfg, hot, migration.PIPM, 1000, 1) == base {
		t.Error("Serve knob change under the same name did not change the key")
	}
	fsBase := KeyOf(o.Cfg, fs, migration.PIPM, 1000, 1)
	fsHot := fs
	fsHot.FS.CASFanout++
	if KeyOf(o.Cfg, fsHot, migration.PIPM, 1000, 1) == fsBase {
		t.Error("FS knob change under the same name did not change the key")
	}
}
