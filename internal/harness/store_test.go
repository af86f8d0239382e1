package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pipm/internal/audit"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/store"
)

// storeTestOptions is the smallest sweep worth persisting: one workload, two
// schemes, a short trace.
func storeTestOptions(t *testing.T, dir string) Options {
	t.Helper()
	o := QuickOptions()
	o.RecordsPerCore = 5_000
	o.Workloads = o.Workloads[:1]
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Store = st
	return o
}

// TestSuiteStoreRoundTrip: a second process (modelled as a second Suite with
// a fresh Store handle on the same directory) must answer every run from
// disk, simulate nothing, and return bit-identical Results.
func TestSuiteStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	o1 := storeTestOptions(t, dir)
	s1 := NewSuite(o1)
	wl := o1.Workloads[0]
	r1a, err := s1.run.Get(s1.req(o1.Cfg, wl, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	r1b, err := s1.run.Get(s1.req(o1.Cfg, wl, migration.PIPM))
	if err != nil {
		t.Fatal(err)
	}
	st1, ok := s1.StoreStats()
	if !ok {
		t.Fatal("StoreStats reported no store despite Options.Store")
	}
	if st1.Hits != 0 || st1.Misses != 2 || st1.Saves != 2 || st1.Corrupt != 0 {
		t.Fatalf("cold sweep store stats: %+v", st1)
	}
	for _, rs := range s1.RunStats() {
		if rs.StoreHit {
			t.Fatalf("cold sweep marked run %s as a store hit", rs.Key)
		}
	}

	o2 := storeTestOptions(t, dir)
	s2 := NewSuite(o2)
	r2a, err := s2.run.Get(s2.req(o2.Cfg, wl, migration.Native))
	if err != nil {
		t.Fatal(err)
	}
	r2b, err := s2.run.Get(s2.req(o2.Cfg, wl, migration.PIPM))
	if err != nil {
		t.Fatal(err)
	}
	if r2a != r1a || r2b != r1b {
		t.Fatal("store-loaded Results differ from simulated ones")
	}
	st2, _ := s2.StoreStats()
	if st2.Hits != 2 || st2.Misses != 0 || st2.Saves != 0 || st2.Corrupt != 0 {
		t.Fatalf("warm sweep store stats: %+v", st2)
	}
	if st2.Dir != dir {
		t.Fatalf("StoreStats.Dir = %q, want %q", st2.Dir, dir)
	}
	for _, rs := range s2.RunStats() {
		if !rs.StoreHit {
			t.Fatalf("warm sweep run %s was not a store hit", rs.Key)
		}
	}
}

// TestStoreCorruptEntryIsAMiss: a truncated entry must be detected, counted
// corrupt, transparently re-simulated — and repaired by the write-back.
func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()

	o1 := storeTestOptions(t, dir)
	s1 := NewSuite(o1)
	wl := o1.Workloads[0]
	want, err := s1.run.Get(s1.req(o1.Cfg, wl, migration.PIPM))
	if err != nil {
		t.Fatal(err)
	}

	key := s1.req(o1.Cfg, wl, migration.PIPM).Key().String()
	path := o1.Store.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	o2 := storeTestOptions(t, dir)
	var progress bytes.Buffer
	o2.Progress = &progress
	s2 := NewSuite(o2)
	got, err := s2.run.Get(s2.req(o2.Cfg, wl, migration.PIPM))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("re-simulated Result differs from the original")
	}
	st, _ := s2.StoreStats()
	if st.Corrupt != 1 || st.Hits != 0 || st.Saves != 1 {
		t.Fatalf("corrupt-entry store stats: %+v", st)
	}
	if !bytes.Contains(progress.Bytes(), []byte("[store]")) {
		t.Fatalf("no corrupt-entry progress line; got:\n%s", progress.String())
	}
	for _, rs := range s2.RunStats() {
		if rs.StoreHit {
			t.Fatal("corrupt entry was served as a store hit")
		}
	}

	// The write-back repaired the entry: a third handle hits cleanly.
	o3 := storeTestOptions(t, dir)
	s3 := NewSuite(o3)
	if _, err := s3.run.Get(s3.req(o3.Cfg, wl, migration.PIPM)); err != nil {
		t.Fatal(err)
	}
	st3, _ := s3.StoreStats()
	if st3.Hits != 1 || st3.Corrupt != 0 {
		t.Fatalf("post-repair store stats: %+v", st3)
	}
}

// TestStoreContentMismatchIsAMiss: an entry whose container verifies but
// whose content layer fails (here: a telemetry-enabled key answered by an
// entry with no telemetry payload) must be re-simulated, not trusted.
func TestStoreContentMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()

	// Simulate without telemetry, then splice that entry's body under a
	// telemetry-enabled key.
	o1 := storeTestOptions(t, dir)
	s1 := NewSuite(o1)
	wl := o1.Workloads[0]
	if _, err := s1.run.Get(s1.req(o1.Cfg, wl, migration.PIPM)); err != nil {
		t.Fatal(err)
	}
	plainKey := s1.req(o1.Cfg, wl, migration.PIPM).Key().String()
	body, err := o1.Store.Load(plainKey)
	if err != nil {
		t.Fatal(err)
	}

	o2 := storeTestOptions(t, dir)
	o2.Telemetry.SampleInterval = 50 * sim.Microsecond
	s2 := NewSuite(o2)
	telemKey := s2.req(o2.Cfg, wl, migration.PIPM).Key().String()
	if telemKey == plainKey {
		t.Fatal("telemetry-enabled key equals plain key")
	}
	if err := o2.Store.Save(telemKey, body); err != nil {
		t.Fatal(err)
	}

	if _, err := s2.run.Get(s2.req(o2.Cfg, wl, migration.PIPM)); err != nil {
		t.Fatal(err)
	}
	st, _ := s2.StoreStats()
	// Load counted a container hit, NoteContentCorrupt reclassified it; the
	// re-simulation then replaced the spliced entry. The pre-test Save on
	// this handle counts too.
	if st.Corrupt != 1 || st.Hits != 0 || st.Saves != 2 {
		t.Fatalf("content-mismatch store stats: %+v", st)
	}
	if out := s2.Telemetry(); len(out) != 1 || out[0].Output == nil {
		t.Fatal("re-simulated run did not collect telemetry")
	}
}

// TestStoreTelemetryExportIdentity: exports assembled from store-loaded
// telemetry must be byte-identical to the originals — the CI smoke's
// second-run guarantee.
func TestStoreTelemetryExportIdentity(t *testing.T) {
	dir := t.TempDir()

	exports := func(s *Suite) (ts, csv, trace []byte) {
		var a, b, c bytes.Buffer
		if err := s.WriteTimeSeries(&a); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTimeSeriesCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTrace(&c); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes(), c.Bytes()
	}

	run := func() (ts, csv, trace []byte, stats StoreStats) {
		o := storeTestOptions(t, dir)
		o.Telemetry.SampleInterval = 50 * sim.Microsecond
		o.Telemetry.Trace = true
		o.Telemetry.TraceCapacity = 256
		s := NewSuite(o)
		wl := o.Workloads[0]
		for _, k := range []migration.Kind{migration.Native, migration.PIPM} {
			if _, err := s.run.Get(s.req(o.Cfg, wl, k)); err != nil {
				t.Fatal(err)
			}
		}
		ts, csv, trace = exports(s)
		stats, _ = s.StoreStats()
		return
	}

	ts1, csv1, tr1, st1 := run()
	ts2, csv2, tr2, st2 := run()
	if st1.Saves != 2 || st2.Hits != 2 || st2.Misses != 0 || st2.Corrupt != 0 {
		t.Fatalf("store traffic: first %+v, second %+v", st1, st2)
	}
	if !bytes.Equal(ts1, ts2) {
		t.Error("time-series JSON differs after a store round trip")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("time-series CSV differs after a store round trip")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("Chrome trace differs after a store round trip")
	}
}

// TestAuditedRunsBypassStore: audited requests must neither read nor write
// the store — the auditor's sweeps have to execute.
func TestAuditedRunsBypassStore(t *testing.T) {
	dir := t.TempDir()
	o := storeTestOptions(t, dir)
	o.Audit.Mode = audit.Quantum
	s := NewSuite(o)
	wl := o.Workloads[0]
	if _, err := s.run.Get(s.req(o.Cfg, wl, migration.PIPM)); err != nil {
		t.Fatal(err)
	}
	st, ok := s.StoreStats()
	if !ok {
		t.Fatal("StoreStats reported no store")
	}
	if st.Hits != 0 || st.Misses != 0 || st.Saves != 0 || st.Corrupt != 0 {
		t.Fatalf("audited run touched the store: %+v", st)
	}
	keys, err := o.Store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("audited run persisted %d entries", len(keys))
	}
}

// TestRunnerStoreSharing: two Runners (the validate harness path) sharing a
// directory dedupe across processes like Suites do, and Runner.Telemetry
// serves the store-loaded output.
func TestRunnerStoreSharing(t *testing.T) {
	dir := t.TempDir()
	o := storeTestOptions(t, dir)
	o.Telemetry.SampleInterval = 50 * sim.Microsecond
	wl := o.Workloads[0]
	req := RunRequest{Cfg: o.Cfg, WL: wl, Scheme: migration.PIPM,
		Records: o.RecordsPerCore, Seed: o.Seed, Telemetry: o.Telemetry}

	r1 := NewRunner(o)
	res1, err := r1.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Telemetry(req) == nil {
		t.Fatal("first runner collected no telemetry")
	}

	o2 := storeTestOptions(t, dir)
	o2.Telemetry = o.Telemetry
	r2 := NewRunner(o2)
	res2, err := r2.Get(req)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("runner store round trip changed the Result")
	}
	if r2.Telemetry(req) == nil {
		t.Fatal("store hit dropped the telemetry payload")
	}
	st, _ := r2.StoreStats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("second runner store stats: %+v", st)
	}
}

// TestStoreEntriesAreSharded sanity-checks the on-disk layout the docs
// promise: <root>/ab/cd/<64-hex>.
func TestStoreEntriesAreSharded(t *testing.T) {
	dir := t.TempDir()
	o := storeTestOptions(t, dir)
	s := NewSuite(o)
	if _, err := s.run.Get(s.req(o.Cfg, o.Workloads[0], migration.Native)); err != nil {
		t.Fatal(err)
	}
	keys, err := o.Store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(keys))
	}
	key := keys[0]
	want := filepath.Join(dir, key[:2], key[2:4], key)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at sharded path %s: %v", want, err)
	}
}
