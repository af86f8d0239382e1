package harness

import (
	"strings"
	"sync"
	"testing"

	"pipm/internal/migration"
)

// renderArtefacts renders every artefact in the Artefacts table on s —
// concurrently, to exercise cross-builder singleflight — and returns their
// texts in presentation order. hosts is the cluster-size ladder.
func renderArtefacts(t *testing.T, s *Suite, hosts []int) []string {
	t.Helper()
	arts := Artefacts()
	outs := make([]string, len(arts))
	errs := make([]error, len(arts))
	var wg sync.WaitGroup
	for i, a := range arts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = a.Render(s, hosts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", arts[i].ID, err)
		}
	}
	return outs
}

// TestParallelDeterminism asserts every artefact's rendered text is
// byte-identical to the sequential path for worker counts 1, 2 and 8 —
// run under -race in CI.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := QuickOptions()
	o.RecordsPerCore = artefactRecords
	outputs := map[int]string{}
	for _, workers := range []int{1, 2, 8} {
		opt := o
		opt.Workers = workers
		outputs[workers] = strings.Join(renderArtefacts(t, NewSuite(opt), artefactHosts), "")
	}
	if outputs[1] == "" {
		t.Fatal("sequential render is empty")
	}
	for _, workers := range []int{2, 8} {
		if outputs[workers] != outputs[1] {
			t.Errorf("rendered tables differ between 1 and %d workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
				workers, outputs[1], workers, outputs[workers])
		}
	}
}

// TestEngineSingleflight floods the engine with concurrent requests for one
// key and checks exactly one simulation executed.
func TestEngineSingleflight(t *testing.T) {
	o := QuickOptions()
	o.RecordsPerCore = 4_000
	o.Workers = 4
	s := NewSuite(o)
	wl := o.Workloads[0]

	const callers = 16
	results := make([]Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.run.Get(s.req(o.Cfg, wl, migration.PIPM))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	st := s.RunStats()
	if len(st) != 1 {
		t.Fatalf("singleflight executed %d runs, want 1", len(st))
	}
	if st[0].MemoHits != callers-1 {
		t.Fatalf("MemoHits = %d, want %d", st[0].MemoHits, callers-1)
	}
}

// TestEngineDeduplicatesAcrossFigures checks that the shared sweep points of
// different figures hit the memo: after Fig5 and Fig10, the Nomad and Memtis
// base runs must have executed once each.
func TestEngineDeduplicatesAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := QuickOptions()
	o.RecordsPerCore = 4_000
	o.Workloads = o.Workloads[:1]
	s := NewSuite(o)
	for _, f := range []figure{fig5, fig10} {
		if _, err := s.build(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	for _, st := range s.RunStats() {
		seen[st.Workload+"/"+st.Scheme]++
	}
	// Fig5 runs nomad+memtis; Fig10 runs native plus all seven schemes. The
	// overlap must not re-execute.
	wl := o.Workloads[0].Name
	for _, scheme := range []string{"nomad", "memtis"} {
		if n := seen[wl+"/"+scheme]; n != 1 {
			t.Errorf("%s/%s executed %d times, want 1", wl, scheme, n)
		}
	}
	wantRuns := 1 + len(fig10Schemes) // native + the seven comparison schemes
	if len(seen) != wantRuns {
		t.Errorf("executed %d distinct runs, want %d: %v", len(seen), wantRuns, seen)
	}
}

// TestEngineProgressAndError checks the progress writer emits per-run lines
// and that errors surface deterministically through the engine.
func TestEngineProgressAndError(t *testing.T) {
	o := QuickOptions()
	o.RecordsPerCore = 3_000
	var buf syncBuffer
	o.Progress = &buf
	s := NewSuite(o)
	if _, err := s.run.Get(s.req(o.Cfg, o.Workloads[0], migration.Native)); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "[engine] 1/1 runs") {
		t.Errorf("progress line missing: %q", got)
	}

	bad := o.Cfg
	bad.Hosts = 0
	if _, err := s.run.Get(s.req(bad, o.Workloads[0], migration.Native)); err == nil {
		t.Fatal("engine accepted a broken config")
	}
	// The failed run is memoized too: asking again must not re-execute.
	before := len(s.RunStats())
	if _, err := s.run.Get(s.req(bad, o.Workloads[0], migration.Native)); err == nil {
		t.Fatal("memoized failure did not surface")
	}
	if after := len(s.RunStats()); after != before {
		t.Fatalf("failed run re-executed: %d -> %d stats", before, after)
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
