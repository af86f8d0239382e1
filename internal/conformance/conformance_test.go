package conformance

import (
	"reflect"
	"testing"

	"pipm/internal/config"
	"pipm/internal/machine"
	"pipm/internal/migration"
	"pipm/internal/trace"
)

func TestGoldenDetectsStaleRead(t *testing.T) {
	g := NewGolden()
	g.Observe(machine.Observation{Seq: 1, Host: 0, Core: 0, Line: 7, Write: true, Value: 0x1_00000001})
	g.Observe(machine.Observation{Seq: 2, Host: 1, Core: 0, Line: 7, Write: false, Value: 0x1_00000001})
	if len(g.Violations()) != 0 {
		t.Fatalf("clean history flagged: %v", g.Violations())
	}
	g.Observe(machine.Observation{Seq: 3, Host: 1, Core: 0, Line: 7, Write: false, Value: 0})
	if len(g.Violations()) != 1 {
		t.Fatalf("stale read not flagged: %v", g.Violations())
	}
}

func TestGoldenChecksFinalImage(t *testing.T) {
	g := NewGolden()
	g.Observe(machine.Observation{Seq: 1, Line: 3, Write: true, Value: 42})
	g.Observe(machine.Observation{Seq: 2, Line: 4, Write: false, Value: 0})
	if errs := g.CheckFinalImage(map[config.Addr]uint64{3: 42, 4: 0}); len(errs) != 0 {
		t.Fatalf("matching image flagged: %v", errs)
	}
	if errs := g.CheckFinalImage(map[config.Addr]uint64{3: 41, 4: 0}); len(errs) != 1 {
		t.Fatalf("lost write not flagged: %v", errs)
	}
	if errs := g.CheckFinalImage(map[config.Addr]uint64{3: 42}); len(errs) != 1 {
		t.Fatalf("missing line not flagged: %v", errs)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := fuzzShapes()[0]
	for k := TraceKind(0); k < numTraceKinds; k++ {
		a := Generate(99, k, cfg, 200)
		b := Generate(99, k, cfg, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", k)
		}
		c := Generate(100, k, cfg, 200)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical traces", k)
		}
		if len(a) != cfg.Hosts*cfg.CoresPerHost {
			t.Errorf("%s: %d traces for %d cores", k, len(a), cfg.Hosts*cfg.CoresPerHost)
		}
	}
}

func TestShrinkMinimizesAgainstSyntheticOracle(t *testing.T) {
	// The "bug" triggers iff the set still contains a write by core 1 to
	// line 5 — the minimal failing set is exactly one record.
	poison := func(ts [][]trace.Record) bool {
		for _, r := range ts[1] {
			if r.Write && r.Addr.Line() == 5 {
				return true
			}
		}
		return false
	}
	traces := make([][]trace.Record, 2)
	for c := range traces {
		for i := 0; i < 300; i++ {
			traces[c] = append(traces[c], trace.Record{Addr: config.Addr(i%20) << config.LineShift, Write: i%3 == 0})
		}
	}
	traces[1][137] = trace.Record{Addr: 5 << config.LineShift, Write: true}
	if !poison(traces) {
		t.Fatal("oracle does not fail on the full set")
	}
	shrunk := Shrink(traces, poison)
	if !poison(shrunk) {
		t.Fatal("shrunk set no longer fails")
	}
	if n := countRecords(shrunk); n != 1 {
		t.Fatalf("shrunk to %d records, want 1", n)
	}
}

func TestRunSchemeRejectsWrongTraceCount(t *testing.T) {
	cfg := fuzzShapes()[0]
	if _, err := RunScheme(cfg, migration.Native, make([][]trace.Record, 1)); err == nil {
		t.Fatal("wrong trace count accepted")
	}
}

func TestFuzzRejectsNegativeShape(t *testing.T) {
	for _, opts := range []FuzzOptions{{Sets: -3}, {Sets: 1, Records: -5}} {
		if runs, _, err := Fuzz(opts); err == nil || runs != 0 {
			t.Errorf("%+v: runs=%d err=%v, want an error before any run", opts, runs, err)
		}
	}
}

func TestDiffImages(t *testing.T) {
	a := map[config.Addr]uint64{1: 10, 2: 20}
	b := map[config.Addr]uint64{1: 10, 2: 21, 3: 30}
	diffs := DiffImages(a, b)
	if len(diffs) != 2 {
		t.Fatalf("want 2 diffs (line 2 value, line 3 extra), got %v", diffs)
	}
	if len(DiffImages(a, a)) != 0 {
		t.Fatal("identical images reported different")
	}
}

// TestFuzzAdversarialTraces is the acceptance-criteria campaign: at least
// 100 seeded trace sets, every access cross-checked against the golden
// model and the coherence audit, single-writer sets additionally checked
// for cross-scheme final-image equivalence. Short mode runs the fixed
// 104-set campaign; long mode quadruples it.
func TestFuzzAdversarialTraces(t *testing.T) {
	sets := 104 // multiple of the kind rotation, ≥ 100
	if !testing.Short() {
		sets *= 4
	}
	runs, failures, err := Fuzz(FuzzOptions{Seed: 20260806, Sets: sets, Shrink: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if runs < sets {
		t.Fatalf("campaign performed %d machine runs for %d sets", runs, sets)
	}
	for _, f := range failures {
		t.Errorf("seed %d %s under %s (%d records): %v",
			f.Seed, f.Kind, f.Scheme, f.Records, f.Violations)
	}
	t.Logf("fuzz: %d trace sets, %d machine runs, %d failures", sets, runs, len(failures))
}

// TestFuzzEquivalenceDedicated pins the observational-equivalence claim
// with a denser single-writer campaign across Native and PIPM only.
func TestFuzzEquivalenceDedicated(t *testing.T) {
	shape := fuzzShapes()[0]
	for seed := int64(1); seed <= 12; seed++ {
		traces := Generate(seed, SingleWriter, shape, 2000)
		var imgs []map[config.Addr]uint64
		for _, scheme := range []migration.Kind{migration.Native, migration.PIPM} {
			res, err := RunScheme(shape, scheme, traces)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("seed %d %s: %v", seed, scheme, res.Violations)
			}
			imgs = append(imgs, res.Image)
		}
		if diffs := DiffImages(imgs[0], imgs[1]); len(diffs) > 0 {
			t.Fatalf("seed %d: native vs pipm images differ: %v", seed, diffs)
		}
	}
}
