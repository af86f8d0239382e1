package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/gapbs"
	"pipm/internal/migration"
	"pipm/internal/silo"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/trace"
	"pipm/internal/workload"
)

// -update-golden=<tier|all> rewrites the named tier's fixture under
// testdata/ from the current code instead of comparing against it; the
// tiers are the rows of goldenTiers plus "tables" (TestTableFormatGolden).
// Regenerate a digest tier ONLY when a Result change is intended (new
// scheme, new metric, a deliberate model fix) and only after the auditor
// and the metamorphic relations stay green — never to make a refactor
// pass. Regenerate "keys" only for a deliberate key-schema change, and say
// so in the commit message: old stores become cold. See DESIGN.md §11.
var updateGolden = flag.String("update-golden", "",
	"rewrite the named golden tier's fixture from the current code: quick, scale, serve, keys, artefacts, streams, tables or all")

// updating reports whether -update-golden names tier, and fails the test
// on a tier name nothing would regenerate.
func updating(t *testing.T, tier string) bool {
	t.Helper()
	u := *updateGolden
	if u != "" && u != "all" && u != "tables" && !slices.ContainsFunc(goldenTiers, func(g goldenTier) bool { return g.name == u }) {
		t.Fatalf("-update-golden=%q: no such tier", u)
	}
	return u == tier || u == "all"
}

// goldenFile is one committed fixture: the sweep shape it was recorded at
// and one entry per pinned run (digest tiers) or request shape (keys tier).
// Every field is omitempty so each tier's file carries only its own fields.
type goldenFile struct {
	Schema         string        `json:"schema,omitempty"`
	Workload       string        `json:"workload,omitempty"`
	RecordsPerCore int64         `json:"records_per_core,omitempty"`
	Seed           int64         `json:"seed,omitempty"`
	Entries        []goldenEntry `json:"entries,omitempty"`
}

// goldenEntry is one pinned run — its canonical RunKey and the SHA-256
// digest of its Result — or, in the keys tier, one named request key.
type goldenEntry struct {
	Name     string `json:"name,omitempty"`
	Workload string `json:"workload,omitempty"`
	Hosts    int    `json:"hosts,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Key      string `json:"key,omitempty"`
	Digest   string `json:"digest,omitempty"`
}

// label names the entry in messages and matches it across files.
func (e goldenEntry) label() string {
	if e.Name != "" {
		return e.Name
	}
	var parts []string
	if e.Workload != "" {
		parts = append(parts, e.Workload)
	}
	if e.Hosts != 0 {
		parts = append(parts, fmt.Sprintf("%dhosts", e.Hosts))
	}
	return strings.Join(append(parts, e.Scheme), "/")
}

// goldenTier is one bit-identity guard: a fixture file, the header its
// sweep shape must match, and the sweep that produces its entries in
// presentation order. Slow tiers simulate and are skipped in -short.
type goldenTier struct {
	name   string
	file   string
	header goldenFile
	sweep  func(t *testing.T) []goldenEntry
	slow   bool
}

var goldenTiers = func() []goldenTier {
	o := QuickOptions()
	return []goldenTier{
		// quick: every scheme × quick workload. A refactor of the walk or
		// the route modules that changes any stat, latency or event
		// ordering fails here before it can shift a figure.
		//
		// Golden digests are one of three independent guards over the
		// memory path; the other two are the runtime invariant auditor
		// (internal/audit) and the metamorphic relation registry
		// (internal/validate). Digests catch any bit drift but cannot say
		// whether the old or new behaviour was right; the auditor and the
		// relations check the protocol's own laws.
		{name: "quick", file: "golden_quick.json", slow: true, sweep: quickSweep,
			header: goldenFile{Schema: "pipm-golden/v1", RecordsPerCore: o.RecordsPerCore, Seed: o.Seed}},
		// scale: pr at every ClusterScale host count × scheme. 16 and 64
		// hosts pin the sharded directory and the widest exact sharer
		// bitmask; 256 hosts pins the summary sharer representation,
		// 3-byte global remap entries and sparse hotness rows.
		{name: "scale", file: "golden_scale.json", slow: true, sweep: scaleSweep,
			header: goldenFile{Schema: "pipm-golden-scale/v1", Workload: "pr", RecordsPerCore: o.RecordsPerCore, Seed: o.Seed}},
		// serve: every (workload, hosts, scheme) run behind
		// the serve artefact. The mechanistic generators execute their
		// serving/filesystem loops, so these digests pin generator
		// behaviour — arrival sequencing, slot placement, CAS ordering —
		// as well as the simulator's.
		{name: "serve", file: "golden_serve.json", slow: true, sweep: serveSweep,
			header: goldenFile{Schema: "pipm-golden-serve/v1", RecordsPerCore: o.RecordsPerCore, Seed: o.Seed}},
		// keys: the exact hex RunKeys of a representative request matrix.
		// Once keys persist in the result store, an accidental change to
		// the canonical encoding silently orphans every stored entry. No
		// simulation runs, so the tier is fast enough for -short.
		{name: "keys", file: "golden_keys.json", sweep: keysSweep,
			header: goldenFile{Schema: "pipm-keys/v1"}},
		// artefacts: the SHA-256 of every artefact's rendered text at the
		// quick configuration, a small budget and a short host ladder. The
		// digest tiers pin the Results; this one pins the figure math that
		// turns them into tables.
		{name: "artefacts", file: "golden_artefacts.json", slow: true, sweep: artefactsSweep,
			header: goldenFile{Schema: "pipm-golden-artefacts/v1", RecordsPerCore: artefactRecords, Seed: o.Seed}},
		// streams: the SHA-256 of one (host, core) record stream of every
		// trace generator — each registered workload preset, the three
		// gapbs kernels and the two silo op mixes. Only a few presets reach
		// a Result digest, so this tier is the bit-level pin on the rest.
		// No simulation runs.
		{name: "streams", file: "golden_streams.json", sweep: streamsSweep,
			header: goldenFile{Schema: "pipm-golden-streams/v1", RecordsPerCore: streamRecords, Seed: o.Seed}},
	}
}()

// TestGolden runs every tier: each sweep must reproduce its fixture entry
// for entry — same labels, same run keys, same Result digests.
func TestGolden(t *testing.T) {
	for _, tier := range goldenTiers {
		t.Run(tier.name, func(t *testing.T) {
			if tier.slow && testing.Short() {
				t.Skip("simulating sweep is too slow for -short")
			}
			update := updating(t, tier.name)
			got := tier.sweep(t)
			if update {
				gf := tier.header
				gf.Entries = got
				buf, err := json.MarshalIndent(gf, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", tier.file)
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d golden entries to %s", len(got), path)
				return
			}
			compareGolden(t, tier.name, loadGolden(t, tier.name), got)
		})
	}
}

// loadGolden reads the named tier's fixture and checks its header against
// the tier's sweep shape.
func loadGolden(t *testing.T, name string) goldenFile {
	t.Helper()
	i := slices.IndexFunc(goldenTiers, func(g goldenTier) bool { return g.name == name })
	if i < 0 {
		t.Fatalf("no golden tier %q", name)
	}
	tier := goldenTiers[i]
	path := filepath.Join("testdata", tier.file)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden=%s): %v", name, err)
	}
	var gf goldenFile
	if err := json.Unmarshal(buf, &gf); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	head := gf
	head.Entries = nil
	if !reflect.DeepEqual(head, tier.header) {
		t.Fatalf("%s header %+v != sweep shape %+v; regenerate with -update-golden=%s", path, head, tier.header, name)
	}
	return gf
}

// compareGolden matches got against the fixture by label: every label in
// both with the same key and digest, none missing, none stale.
func compareGolden(t *testing.T, name string, want goldenFile, got []goldenEntry) {
	t.Helper()
	wantByLabel := make(map[string]goldenEntry, len(want.Entries))
	for _, e := range want.Entries {
		wantByLabel[e.label()] = e
	}
	for _, e := range got {
		w, ok := wantByLabel[e.label()]
		switch {
		case !ok:
			t.Errorf("%s: not in golden file (new run or matrix entry? regenerate with -update-golden=%s)", e.label(), name)
			continue
		case w.Key != e.Key:
			t.Errorf("%s: run key %s… != golden %s… (config or canonical encoding changed — stored entries are orphaned)",
				e.label(), prefix(e.Key), prefix(w.Key))
		case w.Digest != e.Digest:
			t.Errorf("%s: Result digest %s… != golden %s… (no longer bit-identical)",
				e.label(), prefix(e.Digest), prefix(w.Digest))
		}
		delete(wantByLabel, e.label())
	}
	for label := range wantByLabel {
		t.Errorf("golden entry %s has no matching run (removed or renamed?)", label)
	}
	if len(got) != len(want.Entries) {
		t.Errorf("swept %d entries, golden file has %d", len(got), len(want.Entries))
	}
}

func prefix(s string) string { return s[:min(12, len(s))] }

// digestSweep executes reqs on GOMAXPROCS goroutines and returns one entry
// per request, in request order: labels[i] with reqs[i]'s key and Result
// digest. Every request is telemetry- and audit-free, so the digests pin
// the same Results the figure tables are assembled from.
func digestSweep(t *testing.T, labels []goldenEntry, reqs []RunRequest) []goldenEntry {
	t.Helper()
	entries := slices.Clone(labels)
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, _, _, err := Run(r)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", labels[i].label(), err)
				return
			}
			entries[i].Key = r.Key().String()
			entries[i].Digest = DigestResult(res)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return entries
}

// artefactRecords and artefactHosts are the artefacts tier's record budget
// and cluster-size ladder: small enough to render every artefact in seconds.
const artefactRecords = 3000

var artefactHosts = []int{4, 16}

// artefactsSweep renders every artefact on one quick-configuration suite
// and digests each one's text.
func artefactsSweep(t *testing.T) []goldenEntry {
	o := QuickOptions()
	o.RecordsPerCore = artefactRecords
	var out []goldenEntry
	texts := renderArtefacts(t, NewSuite(o), artefactHosts)
	for i, a := range Artefacts() {
		sum := sha256.Sum256([]byte(texts[i]))
		out = append(out, goldenEntry{Name: a.ID, Digest: hex.EncodeToString(sum[:])})
	}
	return out
}

// streamRecords is the streams tier's per-stream record budget.
const streamRecords = 4000

// streamsSweep digests host 1 / core 1 of every generator at the quick
// configuration widened to two cores per host, so both the host and the
// core term of each per-core seed fold reach the stream.
func streamsSweep(t *testing.T) []goldenEntry {
	o := QuickOptions()
	cfg := o.Cfg
	cfg.CoresPerHost = 2
	am := config.NewAddressMap(&cfg)
	const host, core = 1, 1
	var out []goldenEntry
	add := func(name string, r trace.Reader) {
		out = append(out, goldenEntry{Name: name, Digest: streamDigest(r)})
	}
	for _, wl := range workload.All() {
		add("workload/"+wl.Name, wl.NewReader(am, cfg.Hosts, host, core, streamRecords, o.Seed))
	}
	l, err := gapbs.NewLayout(am, gapbs.Kronecker(10, 8, 1), cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []gapbs.Kernel{gapbs.PageRank, gapbs.BFS, gapbs.SSSP} {
		add("gapbs/"+k.String(), l.NewReader(k, host, core, cfg.CoresPerHost, streamRecords, o.Seed))
	}
	st, err := silo.NewStore(am, cfg.Hosts, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []silo.Op{silo.YCSB, silo.TPCC} {
		add("silo/"+op.String(), st.NewReader(op, host, core, cfg.CoresPerHost, streamRecords, o.Seed))
	}
	return out
}

// streamDigest drains r and returns the hex SHA-256 of its records, each
// encoded as gap (4 bytes LE), address (8 bytes LE), write, dep.
func streamDigest(r trace.Reader) string {
	h := sha256.New()
	var buf [14]byte
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint32(buf[0:], rec.Gap)
		binary.LittleEndian.PutUint64(buf[4:], uint64(rec.Addr))
		buf[12], buf[13] = 0, 0
		if rec.Write {
			buf[12] = 1
		}
		if rec.Dep {
			buf[13] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quickSweep is every registered scheme × every QuickOptions workload,
// workload-major.
func quickSweep(t *testing.T) []goldenEntry {
	o := QuickOptions()
	var labels []goldenEntry
	var reqs []RunRequest
	for _, wl := range o.Workloads {
		for _, k := range migration.Kinds {
			labels = append(labels, goldenEntry{Workload: wl.Name, Scheme: k.String()})
			reqs = append(reqs, RunRequest{Cfg: o.Cfg, WL: wl, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed})
		}
	}
	return digestSweep(t, labels, reqs)
}

// clusterRun is the ClusterScale run of wl under k at hosts: the
// ScaleForHosts config with records scaled by ClusterScaleRecords.
func clusterRun(wl string, hosts int, k migration.Kind) RunRequest {
	o := QuickOptions()
	return RunRequest{
		Cfg: ScaleForHosts(o.Cfg, hosts), WL: mustWorkload(wl), Scheme: k,
		Records: ClusterScaleRecords(o.RecordsPerCore, o.Cfg.Hosts, hosts), Seed: o.Seed,
	}
}

// scaleSweep is the ClusterScale run set on pr: every host count × the
// cluster-scale schemes.
func scaleSweep(t *testing.T) []goldenEntry {
	var labels []goldenEntry
	var reqs []RunRequest
	for _, hosts := range ClusterScaleHosts() {
		for _, k := range clusterScaleSchemes {
			labels = append(labels, goldenEntry{Hosts: hosts, Scheme: k.String()})
			reqs = append(reqs, clusterRun("pr", hosts, k))
		}
	}
	return digestSweep(t, labels, reqs)
}

// serveSweep is the run set behind the serve artefact: every scheme on each
// serve workload at the base cluster size, then the cluster-scale schemes
// at every cluster size. Base-size pairs the second part repeats keep
// their first position.
func serveSweep(t *testing.T) []goldenEntry {
	base := QuickOptions().Cfg.Hosts
	var labels []goldenEntry
	var reqs []RunRequest
	add := func(wl string, hosts int, k migration.Kind) {
		e := goldenEntry{Workload: wl, Hosts: hosts, Scheme: k.String()}
		if slices.Contains(labels, e) {
			return
		}
		labels = append(labels, e)
		reqs = append(reqs, clusterRun(wl, hosts, k))
	}
	for _, wl := range ServeWorkloads() {
		for _, k := range migration.Kinds {
			add(wl.Name, base, k)
		}
		for _, hosts := range ClusterScaleHosts() {
			for _, k := range clusterScaleSchemes {
				add(wl.Name, hosts, k)
			}
		}
	}
	return digestSweep(t, labels, reqs)
}

// keysSweep enumerates the request shapes whose keys are pinned: the plain
// quick-sweep keys, each key-affecting knob varied one at a time, the
// enabled-option variants (telemetry/audit fold into the key only when
// on), and the canonicalized float encodings. It also checks the
// invariants the matrix must satisfy with or without a fixture: distinct
// shapes get distinct keys, canonical float twins alias.
func keysSweep(t *testing.T) []goldenEntry {
	o := QuickOptions()
	wl := o.Workloads[0]
	var out []goldenEntry
	req := func(name string, r RunRequest) {
		out = append(out, goldenEntry{Name: name, Key: r.Key().String()})
	}
	base := RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.PIPM, Records: 1000, Seed: 1}

	for _, w := range o.Workloads {
		for _, k := range migration.Kinds {
			req(fmt.Sprintf("quick/%s/%v", w.Name, k),
				RunRequest{Cfg: o.Cfg, WL: w, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed})
		}
	}

	req("base", base)

	records := base
	records.Records = 2000
	req("records=2000", records)

	seed := base
	seed.Seed = 7
	req("seed=7", seed)

	cfg := base
	cfg.Cfg.Kernel.Interval += sim.Microsecond
	req("cfg.Kernel.Interval+1us", cfg)

	zipf := base
	zipf.WL.ZipfS += 0.25
	req("wl.ZipfS+0.25", zipf)

	telem := base
	telem.Telemetry = telemetry.Options{SampleInterval: 50 * sim.Microsecond}
	req("telemetry=sample50us", telem)

	trace := base
	trace.Telemetry = telemetry.Options{Trace: true, TraceCapacity: 256}
	req("telemetry=trace256", trace)

	audited := base
	audited.Audit = audit.Options{Mode: audit.Quantum}
	req("audit=quantum", audited)

	// Canonicalized float encodings: these names pin *aliasing*, not just
	// values — the check below asserts -0.0/NaN-payload keys equal their
	// canonical twins.
	negZero := base
	negZero.WL.OwnFrac = math.Copysign(0, -1)
	req("wl.OwnFrac=-0.0", negZero)

	posZero := base
	posZero.WL.OwnFrac = 0
	req("wl.OwnFrac=+0.0", posZero)

	nan := base
	nan.WL.OwnFrac = math.Float64frombits(0x7ff8000000000042)
	req("wl.OwnFrac=NaN(payload42)", nan)

	// Production-service workloads: the quick shape on both mechanistic
	// generators, one enabled-sub-param variation each (the knob must join
	// the key), and the disabled-equals-legacy alias — a statistical preset
	// with zero-valued Serve/FS must key exactly like the pre-mechanistic
	// encoding, which the "quick/..." entries above already pin.
	for _, name := range []string{"llmserve", "daxfs"} {
		w := mustWorkload(name)
		for _, k := range clusterScaleSchemes {
			req(fmt.Sprintf("serve/%s/%v", name, k),
				RunRequest{Cfg: o.Cfg, WL: w, Scheme: k, Records: o.RecordsPerCore, Seed: o.Seed})
		}
	}
	serveKnob := base
	serveKnob.WL = mustWorkload("llmserve")
	serveKnob.WL.Serve.MigrateFrac += 0.25
	req("serve/llmserve/MigrateFrac+0.25", serveKnob)

	fsKnob := base
	fsKnob.WL = mustWorkload("daxfs")
	fsKnob.WL.FS.CASFanout++
	req("serve/daxfs/CASFanout+1", fsKnob)

	byName := map[string]string{}
	for _, e := range out {
		byName[e.Name] = e.Key
	}
	if byName["wl.OwnFrac=-0.0"] != byName["wl.OwnFrac=+0.0"] {
		t.Error("-0.0 and +0.0 keys differ")
	}
	seen := map[string]string{}
	for _, e := range out {
		if e.Name == "wl.OwnFrac=-0.0" || e.Name == "base" {
			continue // deliberate aliases: of +0.0 / of quick pr run at different budget
		}
		if prev, dup := seen[e.Key]; dup {
			t.Errorf("%q and %q share key %s…", prev, e.Name, e.Key[:12])
		}
		seen[e.Key] = e.Name
	}
	return out
}
