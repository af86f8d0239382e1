package harness

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pipm/internal/migration"
)

// progressLine matches one engine completion line. Wall time, simulated
// throughput and the ETA vary run to run; the counters must not.
var progressLine = regexp.MustCompile(
	`^\[engine\] (\d+)/(\d+) runs  (\S+)/(\S+) \S+  sim \S+  \(eta \S+ for (\d+) queued\)$`)

// TestProgressOutputSerialised runs a batch of parallel simulations with a
// progress writer attached and checks the emitted stream line by line: every
// line matches the format exactly (no interleaved fragments), completion
// counters are strictly 1..N in order, and each line's queued count is
// consistent with its own totals. The writer is a plain bytes.Buffer on
// purpose — noteDone writes under the engine lock, which is the only thing
// keeping this test race-free, so a torn or reordered stream fails here.
func TestProgressOutputSerialised(t *testing.T) {
	o := QuickOptions()
	o.RecordsPerCore = 500
	wl := o.Workloads[0]
	const n = 8

	var buf bytes.Buffer
	runner := NewRunner(Options{Workers: 4, Progress: &buf})
	var wg sync.WaitGroup
	for seed := int64(1); seed <= n; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := runner.Get(RunRequest{
				Cfg: o.Cfg, WL: wl, Scheme: migration.Native,
				Records: o.RecordsPerCore, Seed: seed,
			}); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(seed)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), n, buf.String())
	}
	prevTotal := 0
	for i, line := range lines {
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is malformed (torn write?): %q", i+1, line)
		}
		completed, _ := strconv.Atoi(m[1])
		total, _ := strconv.Atoi(m[2])
		queued, _ := strconv.Atoi(m[5])
		if completed != i+1 {
			t.Errorf("line %d: completed counter %d, want %d (out-of-order emission)", i+1, completed, i+1)
		}
		if total < prevTotal || total > n {
			t.Errorf("line %d: scheduled total %d out of range (prev %d, max %d)", i+1, total, prevTotal, n)
		}
		prevTotal = total
		if queued != total-completed {
			t.Errorf("line %d: queued %d != scheduled %d - completed %d", i+1, queued, total, completed)
		}
		if m[3] != wl.Name || m[4] != migration.Native.String() {
			t.Errorf("line %d: run identity %s/%s, want %s/%v", i+1, m[3], m[4], wl.Name, migration.Native)
		}
	}
	if lines[n-1][:len("[engine] 8/8")] != "[engine] 8/8" {
		t.Errorf("final line is not 8/8: %q", lines[n-1])
	}
}
