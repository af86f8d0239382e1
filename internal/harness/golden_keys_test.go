package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
)

// -update-golden-keys regenerates testdata/golden_keys.json. The fixture
// pins the exact hex RunKeys of a representative request matrix: once keys
// persist in the result store, an accidental change to the canonical
// encoding (field walk order, float canonicalization, option folding)
// silently orphans every stored entry — this test turns that into a loud
// failure. Regenerate ONLY for a deliberate key-schema change, and say so in
// the commit message: old stores become cold.
var updateGoldenKeys = flag.Bool("update-golden-keys", false,
	"rewrite internal/harness/testdata/golden_keys.json from the current code")

const goldenKeysPath = "testdata/golden_keys.json"

type goldenKeysFile struct {
	Schema  string           `json:"schema"`
	Entries []goldenKeyEntry `json:"entries"`
}

type goldenKeyEntry struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}

// goldenKeyMatrix enumerates the request shapes whose keys are pinned: the
// plain quick-sweep keys, each key-affecting knob varied one at a time, the
// enabled-option variants (telemetry/audit fold into the key only when on),
// and the canonicalized float encodings.
func goldenKeyMatrix() []goldenKeyEntry {
	o := QuickOptions()
	wl := o.Workloads[0]
	req := func(name string, r RunRequest) goldenKeyEntry {
		return goldenKeyEntry{Name: name, Key: r.Key().String()}
	}
	base := RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.PIPM, Records: 1000, Seed: 1}

	var out []goldenKeyEntry
	for _, w := range o.Workloads {
		for _, k := range migration.Kinds {
			out = append(out, req(fmt.Sprintf("quick/%s/%v", w.Name, k),
				RunRequest{Cfg: o.Cfg, WL: w, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed}))
		}
	}

	out = append(out, req("base", base))

	records := base
	records.Records = 2000
	out = append(out, req("records=2000", records))

	seed := base
	seed.Seed = 7
	out = append(out, req("seed=7", seed))

	cfg := base
	cfg.Cfg.Kernel.Interval += sim.Microsecond
	out = append(out, req("cfg.Kernel.Interval+1us", cfg))

	zipf := base
	zipf.WL.ZipfS += 0.25
	out = append(out, req("wl.ZipfS+0.25", zipf))

	telem := base
	telem.Telemetry = telemetry.Options{SampleInterval: 50 * sim.Microsecond}
	out = append(out, req("telemetry=sample50us", telem))

	trace := base
	trace.Telemetry = telemetry.Options{Trace: true, TraceCapacity: 256}
	out = append(out, req("telemetry=trace256", trace))

	audited := base
	audited.Audit = audit.Options{Mode: audit.Quantum}
	out = append(out, req("audit=quantum", audited))

	// Canonicalized float encodings: these names pin *aliasing*, not just
	// values — the comparison below asserts -0.0/NaN-payload keys equal
	// their canonical twins.
	negZero := base
	negZero.WL.OwnFrac = math.Copysign(0, -1)
	out = append(out, req("wl.OwnFrac=-0.0", negZero))

	posZero := base
	posZero.WL.OwnFrac = 0
	out = append(out, req("wl.OwnFrac=+0.0", posZero))

	nan := base
	nan.WL.OwnFrac = math.Float64frombits(0x7ff8000000000042)
	out = append(out, req("wl.OwnFrac=NaN(payload42)", nan))

	// Production-service workloads: the quick shape on both mechanistic
	// generators, one enabled-sub-param variation each (the knob must join
	// the key), and the disabled-equals-legacy alias — a statistical preset
	// with zero-valued Serve/FS must key exactly like the pre-mechanistic
	// encoding, which the "quick/..." entries above already pin.
	for _, name := range []string{"llmserve", "daxfs"} {
		w := mustWorkload(name)
		for _, k := range clusterScaleSchemes {
			out = append(out, req(fmt.Sprintf("serve/%s/%v", name, k),
				RunRequest{Cfg: o.Cfg, WL: w, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed}))
		}
	}
	serveKnob := base
	serveKnob.WL = mustWorkload("llmserve")
	serveKnob.WL.Serve.MigrateFrac += 0.25
	out = append(out, req("serve/llmserve/MigrateFrac+0.25", serveKnob))

	fsKnob := base
	fsKnob.WL = mustWorkload("daxfs")
	fsKnob.WL.FS.CASFanout++
	out = append(out, req("serve/daxfs/CASFanout+1", fsKnob))

	return out
}

// TestGoldenRunKeys pins the canonical key encoding against
// testdata/golden_keys.json. Unlike the golden sweep, no simulation runs —
// this is purely the hash schema, so it is fast enough for -short.
func TestGoldenRunKeys(t *testing.T) {
	got := goldenKeyMatrix()

	// Invariants the matrix itself must satisfy, fixture or not: distinct
	// shapes get distinct keys, canonical float twins alias.
	byName := map[string]string{}
	for _, e := range got {
		byName[e.Name] = e.Key
	}
	if byName["wl.OwnFrac=-0.0"] != byName["wl.OwnFrac=+0.0"] {
		t.Error("-0.0 and +0.0 keys differ")
	}
	seen := map[string]string{}
	for _, e := range got {
		if e.Name == "wl.OwnFrac=-0.0" || e.Name == "base" {
			continue // deliberate aliases: of +0.0 / of quick pr run at different budget
		}
		if prev, dup := seen[e.Key]; dup {
			t.Errorf("%q and %q share key %s…", prev, e.Name, e.Key[:12])
		}
		seen[e.Key] = e.Name
	}

	if *updateGoldenKeys {
		buf, err := json.MarshalIndent(goldenKeysFile{Schema: "pipm-keys/v1", Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenKeysPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenKeysPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden keys to %s", len(got), goldenKeysPath)
		return
	}

	buf, err := os.ReadFile(goldenKeysPath)
	if err != nil {
		t.Fatalf("reading golden keys (regenerate with -update-golden-keys): %v", err)
	}
	var want goldenKeysFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenKeysPath, err)
	}
	if want.Schema != "pipm-keys/v1" {
		t.Fatalf("golden keys schema = %q, want pipm-keys/v1", want.Schema)
	}
	wantByName := map[string]string{}
	for _, e := range want.Entries {
		wantByName[e.Name] = e.Key
	}
	for _, e := range got {
		w, ok := wantByName[e.Name]
		if !ok {
			t.Errorf("%s: not in golden keys file (new matrix entry? regenerate with -update-golden-keys)", e.Name)
			continue
		}
		if w != e.Key {
			t.Errorf("%s: key %s… != golden %s… (canonical encoding changed — every stored entry is now orphaned)",
				e.Name, e.Key[:12], w[:12])
		}
		delete(wantByName, e.Name)
	}
	for name := range wantByName {
		t.Errorf("golden key %q has no matching matrix entry (removed? regenerate with -update-golden-keys)", name)
	}
}
