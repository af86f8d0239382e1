package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/store"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// Config wires one Service instance.
type Config struct {
	// Workers bounds concurrent simulations on the shared engine (≤ 0
	// means GOMAXPROCS) — the same knob as the offline -parallel flag.
	Workers int
	// Store, when non-nil, is the persistent result store under the
	// engine's memo and the source the artefact endpoints serve from.
	Store *store.Store
	// MaxActiveJobs bounds jobs executing at once (≤ 0 means 2); accepted
	// jobs beyond it wait queued in submission order.
	MaxActiveJobs int
	// MaxJobs bounds the job table (≤ 0 means 1024): past it, the
	// least-recently-accessed terminal jobs are evicted. Evicted jobs lose
	// their status/event endpoints; their results remain addressable via
	// /v1/runs/{key}.
	MaxJobs int
	// MaxRunsPerSweep rejects sweeps that expand past this many runs
	// (≤ 0 means 4096).
	MaxRunsPerSweep int
	// RequestTimeout bounds every non-streaming request (≤ 0 means 30s);
	// the SSE event stream is exempt — it lives as long as its job.
	RequestTimeout time.Duration
	// Progress, when non-nil, receives the engine's per-run progress lines.
	Progress io.Writer
	// Logf, when non-nil, receives service log lines (GC task, drain).
	Logf func(format string, args ...any)
}

// Service is the experiment service: one shared run engine, a job manager
// and the HTTP API over both (DESIGN.md §15).
type Service struct {
	cfg     Config
	metrics *Metrics
	reg     *telemetry.Registry
	mgr     *Manager
	store   *store.Store
	handler http.Handler
}

// New builds a Service. The engine, memo and store handle are shared by
// every job the service will ever run — that sharing is the point: identical
// concurrent submissions singleflight into one simulation, and anything the
// store has already seen is never simulated again.
func New(cfg Config) *Service {
	if cfg.MaxRunsPerSweep <= 0 {
		cfg.MaxRunsPerSweep = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	metrics := &Metrics{}
	reg := telemetry.NewRegistry()
	if cfg.Store != nil {
		cfg.Store.RegisterGauges(reg)
	}
	runner := harness.NewRunner(harness.Options{
		Workers:   cfg.Workers,
		Progress:  cfg.Progress,
		Store:     cfg.Store,
		OnRunDone: metrics.OnRunDone,
	})
	s := &Service{
		cfg:     cfg,
		metrics: metrics,
		reg:     reg,
		mgr:     NewManager(runner, cfg.MaxActiveJobs, cfg.MaxJobs, metrics),
		store:   cfg.Store,
	}
	s.handler = s.routes()
	return s
}

// Manager exposes the job manager (tests and the daemon's drain path).
func (s *Service) Manager() *Manager { return s.mgr }

// Metrics exposes the counter set.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler { return s.handler }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Drain stops accepting new sweeps and waits for every job to finish. If ctx
// expires first, every live job is cancelled and Drain still waits for them
// to settle (cancellation is prompt: queued runs never start) before
// returning ctx's error.
func (s *Service) Drain(ctx context.Context) error {
	s.mgr.SetDraining()
	done := make(chan struct{})
	go func() {
		s.mgr.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.logf("drain deadline passed; cancelling live jobs")
		s.mgr.CancelAll()
		<-done
		return ctx.Err()
	}
}

// StartGC launches the background store-GC task: every interval, entries
// older than maxAge (and stale temp files) are collected. The returned stop
// blocks until the task has exited. A nil store or non-positive parameter
// makes it a no-op.
func (s *Service) StartGC(interval, maxAge time.Duration) (stop func()) {
	if s.store == nil || interval <= 0 || maxAge <= 0 {
		return func() {}
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.gcOnce(maxAge)
			case <-stopCh:
				return
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

func (s *Service) gcOnce(maxAge time.Duration) {
	removed, err := s.store.GC(maxAge, time.Now())
	s.metrics.GCRuns.Add(1)
	s.metrics.GCRemovedTotal.Add(uint64(removed))
	switch {
	case err != nil:
		s.logf("gc: %v", err)
	case removed > 0:
		s.logf("gc: removed %d entries older than %v", removed, maxAge)
	}
}

// routes builds the API mux. Every non-streaming endpoint is wrapped in the
// request timeout; the SSE stream is exempt by path.
func (s *Service) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleJobs)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{key}", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{key}/timeseries", s.handleRunTimeSeries)
	mux.HandleFunc("GET /v1/runs/{key}/trace", s.handleRunTrace)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	timed := http.TimeoutHandler(mux, s.cfg.RequestTimeout, "request timed out\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			mux.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
}

// writeJSON emits one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// SubmitResponse is the wire form of POST /v1/sweeps.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Total int      `json:"total"`
	// Deduped marks a submission that matched an existing job (same
	// content-addressed run set); the existing job is returned.
	Deduped bool `json:"deduped,omitempty"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad sweep spec: %w", err))
		return
	}
	runs, id, err := Expand(spec, s.cfg.MaxRunsPerSweep)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j, created, err := s.mgr.Submit(spec, id, runs)
	if errors.Is(err, ErrDraining) {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st := j.Status(false)
	w.Header().Set("Location", "/v1/sweeps/"+j.ID)
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{ID: j.ID, State: st.State, Total: st.Total, Deduped: !created})
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status(true))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Cancel(id) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	j, _ := s.mgr.Get(id)
	writeJSON(w, http.StatusOK, j.Status(false))
}

// handleEvents streams a job's progress as Server-Sent Events: the full
// event log so far, then live events until the terminal job event, a client
// disconnect, or service shutdown. Event ordering is the engine's completion
// order — the noteDone seam — serialised per job.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	replay, live, unsubscribe := j.Subscribe()
	defer unsubscribe()
	s.metrics.SSEClients.Add(1)
	defer s.metrics.SSEClients.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	if live == nil {
		return // job already terminal; the replay ended with its last event
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
			if ev.Type == "job" && JobState(ev.State).Terminal() {
				return
			}
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// loadEntry resolves one run key against the store, mapping the store's
// error taxonomy onto HTTP statuses. A nil body return means the response
// has been written.
func (s *Service) loadEntry(w http.ResponseWriter, key string) []byte {
	if s.store == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no result store attached to this daemon"))
		return nil
	}
	body, err := s.store.Load(key)
	switch {
	case err == nil:
		return body
	case errors.Is(err, store.ErrMiss):
		writeErr(w, http.StatusNotFound, fmt.Errorf("no stored result for key %.12s…", key))
	case store.IsCorrupt(err):
		writeErr(w, http.StatusBadGateway, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
	return nil
}

// handleRun serves the canonical stored entry body — the verified
// `{result, digest, telemetry?}` JSON document, byte-identical to what the
// offline sweep wrote (and to `storecheck -cat KEY`).
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	body := s.loadEntry(w, r.PathValue("key"))
	if body == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// decodeTelemetry decodes a stored entry into its labeled telemetry output;
// a nil return means the response has been written.
func (s *Service) decodeTelemetry(w http.ResponseWriter, key string) []telemetry.LabeledOutput {
	body := s.loadEntry(w, key)
	if body == nil {
		return nil
	}
	res, out, err := harness.DecodeStoredEntry(body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return nil
	}
	if out == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("run %.12s… has no telemetry; submit with sample_interval/trace set", key))
		return nil
	}
	return []telemetry.LabeledOutput{{
		Label:  res.Workload + "/" + res.Scheme.String(),
		Key:    key,
		Output: out,
	}}
}

func (s *Service) handleRunTimeSeries(w http.ResponseWriter, r *http.Request) {
	runs := s.decodeTelemetry(w, r.PathValue("key"))
	if runs == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteTimeSeries(w, runs); err != nil {
		s.logf("timeseries export: %v", err)
	}
}

func (s *Service) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	runs := s.decodeTelemetry(w, r.PathValue("key"))
	if runs == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteChromeTrace(w, runs); err != nil {
		s.logf("trace export: %v", err)
	}
}

// SchemeInfo is the wire form of one scheme-registry descriptor.
type SchemeInfo struct {
	Name          string `json:"name"`
	Family        string `json:"family"`
	Description   string `json:"description"`
	StaticMap     bool   `json:"static_map,omitempty"`
	AsyncTransfer bool   `json:"async_transfer,omitempty"`
	Hints         bool   `json:"hints,omitempty"`
}

func (s *Service) handleSchemes(w http.ResponseWriter, r *http.Request) {
	regd := migration.Registered()
	out := make([]SchemeInfo, len(regd))
	for i, sc := range regd {
		out[i] = SchemeInfo{
			Name:          sc.Name,
			Family:        sc.Family.String(),
			Description:   sc.Desc,
			StaticMap:     sc.StaticMap,
			AsyncTransfer: sc.AsyncTransfer,
			Hints:         sc.Hints,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// WorkloadInfo is the wire form of one registered workload: a Table 1
// catalog entry or a production-service generator.
type WorkloadInfo struct {
	Name           string  `json:"name"`
	Suite          string  `json:"suite"`
	FootprintBytes int64   `json:"footprint_bytes"`
	SharedFrac     float64 `json:"shared_frac"`
	WriteFrac      float64 `json:"write_frac"`
	// Mechanistic marks a generator that derives its mix from a simulated
	// serving/filesystem loop; SharedFrac and WriteFrac do not apply.
	Mechanistic bool `json:"mechanistic,omitempty"`
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := workload.All()
	out := make([]WorkloadInfo, len(all))
	for i, wl := range all {
		out[i] = WorkloadInfo{
			Name:           wl.Name,
			Suite:          wl.Suite,
			FootprintBytes: wl.Footprint,
			SharedFrac:     wl.SharedFrac,
			WriteFrac:      wl.WriteFrac,
			Mechanistic:    wl.Mechanistic(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.metrics.WriteTo(w, s.reg); err != nil {
		s.logf("metrics export: %v", err)
	}
}
