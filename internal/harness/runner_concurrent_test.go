package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipm/internal/migration"
	"pipm/internal/store"
)

// TestRunnerConcurrentSweepSharing shares one store-backed Runner between
// many goroutines submitting overlapping sweeps — the experiment service's
// exact usage — and asserts every distinct key simulated exactly once, with
// all overlap answered by the memo. Run under -race in CI.
func TestRunnerConcurrentSweepSharing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.RecordsPerCore = 3_000
	var completions atomic.Int64
	r := NewRunner(Options{
		Workers:   4,
		Store:     st,
		OnRunDone: func(RunStats) { completions.Add(1) },
	})

	// Each client sweeps a shifted window of the (workload × scheme) grid,
	// so neighbours overlap but no two clients run an identical set.
	schemes := []migration.Kind{migration.Native, migration.PIPM, migration.Nomad, migration.Memtis}
	reqAt := func(i int) RunRequest {
		return RunRequest{
			Cfg: o.Cfg, WL: o.Workloads[i%len(o.Workloads)],
			Scheme: schemes[i%len(schemes)], Records: o.RecordsPerCore, Seed: o.Seed,
		}
	}
	const clients = 8
	uniq := map[string]bool{}
	total := 0
	for c := 0; c < clients; c++ {
		for i := c; i < c+5; i++ {
			uniq[reqAt(i).Key().String()] = true
			total++
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < c+5; i++ { // 5-wide window starting at the client index
				if _, err := r.GetCtx(context.Background(), reqAt(i)); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	stats := r.RunStats()
	if len(stats) != len(uniq) {
		t.Fatalf("executed %d distinct runs, want %d", len(stats), len(uniq))
	}
	if got := completions.Load(); got != int64(len(uniq)) {
		t.Fatalf("OnRunDone fired %d times, want %d (once per distinct key)", got, len(uniq))
	}
	memoHits := 0
	for _, s := range stats {
		if s.StoreHit {
			t.Fatalf("run %s claims a store hit on a cold store", s.Key[:12])
		}
		memoHits += s.MemoHits
	}
	// Every request beyond the first of its key is a memo hit.
	if want := total - len(uniq); memoHits != want {
		t.Fatalf("memo hits = %d, want %d", memoHits, want)
	}
	if ss, ok := r.StoreStats(); !ok || ss.Saves != uint64(len(uniq)) {
		t.Fatalf("store saves = %+v, want %d", ss, len(uniq))
	}

	// A second runner on the same store answers everything from disk.
	var warm atomic.Int64
	r2 := NewRunner(Options{Workers: 4, Store: st,
		OnRunDone: func(s RunStats) {
			if s.StoreHit {
				warm.Add(1)
			}
		}})
	for i := 0; i < clients+4; i++ {
		if _, err := r2.Get(reqAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := warm.Load(); got != int64(len(uniq)) {
		t.Fatalf("warm runner loaded %d from store, want all %d", got, len(uniq))
	}
}

// TestRunnerGetCtxCancellation pins the engine's cancellation contract on a
// single-worker runner: a queued request cancels promptly, the key stays
// claimable afterwards, and in-flight work is unaffected.
func TestRunnerGetCtxCancellation(t *testing.T) {
	o := QuickOptions()
	r := NewRunner(Options{Workers: 1})

	slow := RunRequest{Cfg: o.Cfg, WL: o.Workloads[0], Scheme: migration.PIPM,
		Records: 400_000, Seed: o.Seed}
	fast := RunRequest{Cfg: o.Cfg, WL: o.Workloads[1], Scheme: migration.Native,
		Records: 2_000, Seed: o.Seed}

	// Occupy the only worker slot.
	slowDone := make(chan error, 1)
	go func() {
		_, err := r.GetCtx(context.Background(), slow)
		slowDone <- err
	}()
	// Wait until the slow run owns its entry AND holds the single worker
	// slot, so fast deterministically queues behind it on the semaphore.
	for {
		r.eng.mu.Lock()
		_, claimed := r.eng.runs[slow.Key()]
		r.eng.mu.Unlock()
		if claimed && len(r.eng.sem) == cap(r.eng.sem) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := r.GetCtx(ctx, fast)
		queuedErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block on the worker semaphore
	cancel()
	select {
	case err := <-queuedErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued GetCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request did not return promptly")
	}

	// A second waiter on the SAME aborted key with a live context must
	// re-claim it and succeed (after the slow run frees the worker).
	if _, err := r.GetCtx(context.Background(), fast); err != nil {
		t.Fatalf("re-claiming an aborted key failed: %v", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight run was disturbed by cancellation: %v", err)
	}
	// Exactly the two real executions ran; no ghost entry for the abort.
	if stats := r.RunStats(); len(stats) != 2 {
		t.Fatalf("engine recorded %d runs, want 2", len(stats))
	}
}

// TestRunnerGetCtxWaiterCancellation: a waiter piggybacking on another
// caller's in-flight execution can abandon the wait without affecting the
// owner or the result.
func TestRunnerGetCtxWaiterCancellation(t *testing.T) {
	o := QuickOptions()
	r := NewRunner(Options{Workers: 1})
	req := RunRequest{Cfg: o.Cfg, WL: o.Workloads[0], Scheme: migration.PIPM,
		Records: 400_000, Seed: o.Seed}

	ownerDone := make(chan error, 1)
	go func() {
		_, err := r.Get(req)
		ownerDone <- err
	}()
	// Wait until the owner has claimed the entry, so the cancelled caller
	// below is a waiter on that entry, never a competing owner.
	for {
		r.eng.mu.Lock()
		_, claimed := r.eng.runs[req.Key()]
		r.eng.mu.Unlock()
		if claimed {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.GetCtx(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed after waiter cancelled: %v", err)
	}
	if _, err := r.Get(req); err != nil {
		t.Fatalf("memo lookup after waiter cancellation failed: %v", err)
	}
	if stats := r.RunStats(); len(stats) != 1 {
		t.Fatalf("engine recorded %d runs, want 1", len(stats))
	}
}
