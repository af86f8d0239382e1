package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/store"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// RunRequest names one simulation the run graph needs: the full
// configuration, workload, scheme and trace budget. Requests are the unit of
// deduplication — two requests with the same RunKey execute once.
type RunRequest struct {
	Cfg     config.Config
	WL      workload.Params
	Scheme  migration.Kind
	Records int64
	Seed    int64

	// Telemetry, when enabled, makes the run collect a time-series and/or
	// event trace. Enabled telemetry is part of the run identity; the zero
	// value leaves the key — and the memo space — exactly as before.
	Telemetry telemetry.Options

	// Audit, when enabled, attaches the runtime invariant auditor; a run
	// with violations fails (get returns the report's error). Enabled audit
	// is part of the run identity, like Telemetry.
	Audit audit.Options
}

// Key returns the request's canonical run key.
func (r RunRequest) Key() RunKey {
	return keyOf(r.Cfg, r.WL, r.Scheme, r.Records, r.Seed, r.Telemetry, r.Audit)
}

// RunStats is the observability record of one executed simulation: how long
// it took on the wall clock, how much simulated time and how many
// instructions it covered, and how many times the memo served it again.
type RunStats struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Records  int64  `json:"records_per_core"`
	Seed     int64  `json:"seed"`

	// Cluster shape and the record volume actually simulated. Cluster-scale
	// sweeps scale Records inversely with Hosts, so Records alone misleads
	// cross-host-count throughput comparisons; TotalRecords is
	// Records × Hosts × CoresPerHost, the real simulated volume.
	Hosts        int   `json:"hosts"`
	CoresPerHost int   `json:"cores_per_host"`
	TotalRecords int64 `json:"total_records"`

	WallMS       float64 `json:"wall_ms"` // host wall-clock for Run
	SimPS        int64   `json:"sim_ps"`  // simulated execution time (picoseconds)
	Instructions int64   `json:"instructions"`
	MIPS         float64 `json:"mips"`      // simulated instructions per wall-µs
	MemoHits     int     `json:"memo_hits"` // extra requests served from the memo
	// StoreHit marks a run answered from the persistent result store
	// instead of simulating; WallMS is then the disk load, not a run.
	StoreHit bool `json:"store_hit,omitempty"`
}

// engine is the run-graph scheduler: a RunKey-addressed memo with
// singleflight semantics over a bounded worker pool. Any number of figure
// builders may request runs concurrently; each distinct key executes exactly
// once, at most `workers` simulations run at a time, and every requester of
// a key blocks until its one execution finishes. Results are deterministic
// for any worker count because Run itself is deterministic and table
// assembly reads the memo in presentation order.
type engine struct {
	workers  int
	sem      chan struct{}
	progress io.Writer
	// onDone, when non-nil, receives one RunStats per completed execution
	// (simulated or store-loaded; memo hits of an already-completed key do
	// not re-fire). It is invoked while holding the engine lock — the same
	// ordering seam as the progress lines — so callbacks observe completions
	// in a single total order but must return quickly and must never call
	// back into the engine.
	onDone func(RunStats)
	// store, when non-nil, is the persistent layer under the memo: a memo
	// miss first consults the disk store and only simulates on a store
	// miss (or a corrupt entry); completed simulations are written back.
	// Audited requests bypass the store entirely — the auditor's value is
	// in executing its sweeps, which a disk read would silently skip.
	store *store.Store

	mu        sync.Mutex
	runs      map[RunKey]*runEntry
	scheduled int
	completed int
	wallSum   time.Duration
}

type runEntry struct {
	done   chan struct{} // closed when res/err/stats are final
	res    Result
	err    error
	stats  RunStats
	telem  *telemetry.Output // nil unless the request enabled telemetry
	report audit.Report      // zero unless the request enabled auditing
}

func newEngine(workers int, progress io.Writer, st *store.Store, onDone func(RunStats)) *engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &engine{
		workers:  workers,
		sem:      make(chan struct{}, workers),
		progress: progress,
		store:    st,
		onDone:   onDone,
		runs:     map[RunKey]*runEntry{},
	}
}

// errAborted marks a run entry whose owner cancelled before the simulation
// started: the entry has been removed from the memo, so a requester whose
// own context is still live simply claims the key again.
var errAborted = errors.New("harness: run aborted before execution (submitter cancelled)")

// storeEligible reports whether the request may be answered from — and
// written to — the persistent store. Audited runs are excluded: loading a
// result would skip the invariant sweeps that are the whole point of the
// run (their keys differ from unaudited ones anyway, so they could never
// alias a plain entry).
func (e *engine) storeEligible(req RunRequest) bool {
	return e.store != nil && !req.Audit.Enabled()
}

// tryStoreLoad attempts to answer the request from the persistent store,
// filling ent and completing it on success. Corrupt entries are counted,
// logged to the progress writer and treated exactly like misses.
func (e *engine) tryStoreLoad(ent *runEntry, req RunRequest, key RunKey) bool {
	start := time.Now()
	body, err := e.store.Load(key.String())
	if err != nil {
		if store.IsCorrupt(err) && e.progress != nil {
			fmt.Fprintf(e.progress, "[store] %v; re-simulating %s/%v\n", err, req.WL.Name, req.Scheme)
		}
		return false
	}
	se, derr := decodeStoreEntry(body, req)
	if derr != nil {
		// The container verified but the content didn't: count it with the
		// corrupt entries so the report shows one number for "entries that
		// could not be trusted".
		e.store.NoteContentCorrupt()
		if e.progress != nil {
			fmt.Fprintf(e.progress, "[store] corrupt entry %s (%v); re-simulating %s/%v\n",
				key.Short(), derr, req.WL.Name, req.Scheme)
		}
		return false
	}
	wall := time.Since(start)
	ent.res = se.Result
	ent.telem = se.Telemetry
	ent.stats.StoreHit = true
	ent.stats.WallMS = float64(wall) / float64(time.Millisecond)
	ent.stats.SimPS = int64(ent.res.ExecTime)
	ent.stats.Instructions = ent.res.Instructions
	close(ent.done)
	e.noteDone(ent, wall)
	return true
}

// storeSave persists a freshly simulated run; failures are counted on the
// store handle and reported once per sweep, never failing the run itself.
func (e *engine) storeSave(ent *runEntry, key RunKey) {
	body, err := encodeStoreEntry(ent.res, ent.telem)
	if err == nil {
		err = e.store.Save(key.String(), body)
	}
	if err != nil && e.progress != nil {
		fmt.Fprintf(e.progress, "[store] save %s failed: %v\n", key.Short(), err)
	}
}

// get returns the memoized result for the request, executing it if this is
// the first request for its key. Concurrent callers with the same key share
// one execution (singleflight); callers with distinct keys run in parallel,
// bounded by the worker pool.
func (e *engine) get(req RunRequest) (Result, error) {
	return e.getCtx(context.Background(), req)
}

// getCtx is get with cancellation. A context cancelled while the caller is
// queued — waiting for another caller's execution, or waiting for a worker
// slot — returns ctx.Err() promptly; a simulation that has already claimed a
// worker slot runs to completion (its result is still valid, shared work)
// and only the wait is abandoned. When the owning caller of a key aborts
// before execution starts, the entry is removed from the memo so the key can
// be claimed again; waiters whose own contexts are still live retry
// transparently.
func (e *engine) getCtx(ctx context.Context, req RunRequest) (Result, error) {
	for {
		res, err := e.getOnce(ctx, req)
		if errors.Is(err, errAborted) && ctx.Err() == nil {
			continue // the aborting owner removed the entry; claim it ourselves
		}
		return res, err
	}
}

func (e *engine) getOnce(ctx context.Context, req RunRequest) (Result, error) {
	key := req.Key()
	e.mu.Lock()
	if ent, ok := e.runs[key]; ok {
		ent.stats.MemoHits++
		e.mu.Unlock()
		select {
		case <-ent.done:
			return ent.res, ent.err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	ent := &runEntry{done: make(chan struct{})}
	ent.stats = RunStats{
		Key:          key.String(),
		Workload:     req.WL.Name,
		Scheme:       req.Scheme.String(),
		Records:      req.Records,
		Seed:         req.Seed,
		Hosts:        req.Cfg.Hosts,
		CoresPerHost: req.Cfg.CoresPerHost,
		TotalRecords: req.Records * int64(req.Cfg.Hosts) * int64(req.Cfg.CoresPerHost),
	}
	e.runs[key] = ent
	e.scheduled++
	e.mu.Unlock()

	// Persistent-store fall-through: a memo miss may still be a disk hit —
	// a prior process already simulated this exact recipe. Only a store
	// miss (or an entry that fails verification) pays for a simulation.
	if e.storeEligible(req) && e.tryStoreLoad(ent, req, key) {
		return ent.res, nil
	}

	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.abort(ent, key)
		return Result{}, ctx.Err()
	}
	if ctx.Err() != nil {
		// The slot and the cancellation raced; honour the cancellation —
		// nothing has executed yet.
		<-e.sem
		e.abort(ent, key)
		return Result{}, ctx.Err()
	}
	start := time.Now()
	ent.res, ent.telem, ent.report, ent.err = Run(req)
	if ent.err == nil {
		// An invariant violation fails the run exactly like a build error
		// would: every requester of this key sees it.
		ent.err = ent.report.Err()
	}
	if ent.err == nil && e.storeEligible(req) {
		e.storeSave(ent, key)
	}
	wall := time.Since(start)
	<-e.sem

	ent.stats.WallMS = float64(wall) / float64(time.Millisecond)
	ent.stats.SimPS = int64(ent.res.ExecTime)
	ent.stats.Instructions = ent.res.Instructions
	if us := wall.Microseconds(); us > 0 {
		ent.stats.MIPS = float64(ent.res.Instructions) / float64(us)
	}
	close(ent.done)
	e.noteDone(ent, wall)
	if ent.err != nil {
		return ent.res, fmt.Errorf("harness: %s/%v: %w", req.WL.Name, req.Scheme, ent.err)
	}
	return ent.res, nil
}

// abort withdraws a claimed-but-never-executed entry: the owner's context
// was cancelled while it waited for a worker slot. The entry leaves the memo
// (so the key can be re-claimed by a live requester) and any waiters see
// errAborted, which getCtx converts into a retry unless their own context is
// also dead.
func (e *engine) abort(ent *runEntry, key RunKey) {
	e.mu.Lock()
	delete(e.runs, key)
	e.scheduled--
	ent.err = errAborted
	e.mu.Unlock()
	close(ent.done)
}

// noteDone updates the progress counters and, when a progress writer is
// attached, emits one completion line with a naive remaining-work ETA
// (mean wall per run × outstanding runs ÷ workers). The line is written
// while still holding the engine lock: counters printed outside it could
// appear out of order ("3/24" before "2/24") and two workers' lines could
// interleave mid-line under parallel runs. The lock also makes the engine
// the sole serialisation point for the writer, so any io.Writer — a plain
// bytes.Buffer in tests, os.Stderr in the CLIs — is safe without its own
// locking as long as nothing else writes to it concurrently.
func (e *engine) noteDone(ent *runEntry, wall time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.completed++
	e.wallSum += wall
	if e.onDone != nil {
		e.onDone(ent.stats)
	}
	if e.progress == nil {
		return
	}
	mean := e.wallSum / time.Duration(e.completed)
	remaining := e.scheduled - e.completed
	eta := mean * time.Duration(remaining) / time.Duration(e.workers)
	fmt.Fprintf(e.progress, "[engine] %d/%d runs  %s/%s %v  sim %v  (eta %v for %d queued)\n",
		e.completed, e.scheduled, ent.stats.Workload, ent.stats.Scheme,
		wall.Round(time.Millisecond), sim.Time(ent.stats.SimPS),
		eta.Round(100*time.Millisecond), remaining)
}

// runAll executes the deduplicated request set on the worker pool and blocks
// until every run finishes. The first error in request order is returned —
// request order, not completion order, so the error is deterministic for any
// worker count.
func (e *engine) runAll(reqs []RunRequest) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req RunRequest) {
			defer wg.Done()
			_, errs[i] = e.get(req)
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// statsSnapshot returns the per-run records of every completed execution,
// sorted by (workload, scheme, key) so the order is independent of
// completion order.
func (e *engine) statsSnapshot() []RunStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []RunStats
	for _, ent := range e.runs {
		select {
		case <-ent.done:
			out = append(out, ent.stats)
		default: // still executing; skip
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Runner is the run-graph engine's exported face for callers other than the
// Suite (the validation subsystem, ad-hoc tools): RunKey-memoised,
// singleflight, bounded-parallel execution of RunRequests. Two requests with
// equal keys — across any goroutines — simulate once and share the Result.
type Runner struct{ eng *engine }

// NewRunner builds a runner from the option set's runtime fields: Workers
// (≤ 0 means GOMAXPROCS), Progress, Store and OnRunDone. The sweep-shaping
// fields are ignored — each request names its own run.
func NewRunner(o Options) *Runner {
	return &Runner{eng: newEngine(o.Workers, o.Progress, o.Store, o.OnRunDone)}
}

// Get returns the request's memoized Result, executing the simulation on
// first request of its key. Audited requests fail on any invariant violation.
func (r *Runner) Get(req RunRequest) (Result, error) { return r.eng.get(req) }

// GetCtx is Get with cancellation: a context cancelled while the request is
// queued (waiting on another caller's execution or on a worker slot) returns
// ctx.Err() promptly and leaves the key claimable; a simulation that already
// holds a worker slot runs to completion — results are shared work and stay
// valid for every later requester.
func (r *Runner) GetCtx(ctx context.Context, req RunRequest) (Result, error) {
	return r.eng.getCtx(ctx, req)
}

// StatsFor returns the observability record of the request's run if that run
// has completed on this runner; ok is false while it is still queued or
// executing, or if the key was never requested.
func (r *Runner) StatsFor(req RunRequest) (RunStats, bool) {
	r.eng.mu.Lock()
	ent, ok := r.eng.runs[req.Key()]
	r.eng.mu.Unlock()
	if !ok {
		return RunStats{}, false
	}
	select {
	case <-ent.done:
	default:
		return RunStats{}, false
	}
	r.eng.mu.Lock()
	st := ent.stats
	r.eng.mu.Unlock()
	return st, true
}

// Report returns the audit report of a completed audited run, or a zero
// report if the key was never requested (or auditing was off).
func (r *Runner) Report(req RunRequest) audit.Report {
	r.eng.mu.Lock()
	ent, ok := r.eng.runs[req.Key()]
	r.eng.mu.Unlock()
	if !ok {
		return audit.Report{}
	}
	<-ent.done
	return ent.report
}

// RunStats returns the per-run observability records of every completed run.
func (r *Runner) RunStats() []RunStats { return r.eng.statsSnapshot() }

// Telemetry returns the collected (or store-loaded) telemetry of a
// completed run, nil if the key was never requested or telemetry was off.
func (r *Runner) Telemetry(req RunRequest) *telemetry.Output {
	r.eng.mu.Lock()
	ent, ok := r.eng.runs[req.Key()]
	r.eng.mu.Unlock()
	if !ok {
		return nil
	}
	<-ent.done
	return ent.telem
}

// StoreStats reports the persistent store's traffic for this engine's
// lifetime; ok is false when no store is attached.
func (r *Runner) StoreStats() (StoreStats, bool) { return r.eng.storeStatsSnapshot() }

// storeStatsSnapshot adapts the store handle's counters into the report
// schema.
func (e *engine) storeStatsSnapshot() (StoreStats, bool) {
	if e.store == nil {
		return StoreStats{}, false
	}
	st := e.store.Stats()
	return StoreStats{
		Dir:        e.store.Dir(),
		Hits:       st.Hits,
		Misses:     st.Misses,
		Corrupt:    st.Corrupt,
		Saves:      st.Saves,
		SaveErrors: st.SaveErrors,
	}, true
}

// RunTelemetry pairs one completed run's identity with its collected
// telemetry output.
type RunTelemetry struct {
	Workload string
	Scheme   string
	Key      RunKey
	Output   *telemetry.Output
}

// telemetrySnapshot returns the telemetry of every completed run that
// collected any, sorted by (workload, scheme, key) so export order — and the
// exported bytes — are independent of worker count and completion order.
func (e *engine) telemetrySnapshot() []RunTelemetry {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []RunTelemetry
	for key, ent := range e.runs {
		select {
		case <-ent.done:
			if ent.telem != nil && ent.err == nil {
				out = append(out, RunTelemetry{
					Workload: ent.stats.Workload,
					Scheme:   ent.stats.Scheme,
					Key:      key,
					Output:   ent.telem,
				})
			}
		default: // still executing; skip
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}
