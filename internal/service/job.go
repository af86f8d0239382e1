package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pipm/internal/harness"
)

// JobState is the lifecycle of one submitted sweep.
type JobState string

const (
	// JobQueued: accepted, waiting for an active-job slot.
	JobQueued JobState = "queued"
	// JobRunning: holds a slot; its runs are flowing through the engine.
	JobRunning JobState = "running"
	// JobDone: every run completed cleanly.
	JobDone JobState = "done"
	// JobFailed: at least one run errored (build error, invariant
	// violation); the rest still completed.
	JobFailed JobState = "failed"
	// JobCancelled: the submitter cancelled; queued runs never execute,
	// in-flight simulations finish (their results are shared work) but the
	// job stops waiting for them.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// RunState is the lifecycle of one run inside a job.
type RunState string

const (
	RunPending   RunState = "pending"
	RunDone      RunState = "done"
	RunFailed    RunState = "failed"
	RunCancelled RunState = "cancelled"
)

// Event is one progress notification on a job's stream: type "run" marks a
// run reaching a terminal state, type "job" marks a job state change (the
// terminal job event is always the last event of a stream). Seq numbers are
// dense per job, so clients can detect gaps after a reconnect.
type Event struct {
	Seq      int      `json:"seq"`
	Type     string   `json:"type"` // "run" or "job"
	Job      string   `json:"job"`
	State    string   `json:"state"`
	Key      string   `json:"key,omitempty"`
	Workload string   `json:"workload,omitempty"`
	Scheme   string   `json:"scheme,omitempty"`
	Error    string   `json:"error,omitempty"`
	Done     int      `json:"done"`
	Failed   int      `json:"failed,omitempty"`
	Total    int      `json:"total"`
	Stats    *RunInfo `json:"stats,omitempty"`
}

// RunInfo is the per-run observability block embedded in events and status
// reports: the engine's RunStats for the completed execution.
type RunInfo struct {
	WallMS       float64 `json:"wall_ms"`
	SimPS        int64   `json:"sim_ps"`
	Instructions int64   `json:"instructions"`
	MIPS         float64 `json:"mips,omitempty"`
	MemoHits     int     `json:"memo_hits,omitempty"`
	StoreHit     bool    `json:"store_hit,omitempty"`
}

func runInfoOf(st harness.RunStats) *RunInfo {
	return &RunInfo{
		WallMS:       st.WallMS,
		SimPS:        st.SimPS,
		Instructions: st.Instructions,
		MIPS:         st.MIPS,
		MemoHits:     st.MemoHits,
		StoreHit:     st.StoreHit,
	}
}

// jobRun is one run's tracked state inside a job.
type jobRun struct {
	SweepRun
	state RunState
	info  *RunInfo
	err   string
}

// Job is one submitted sweep: a content-addressed identity, the expanded
// run set, a cancellation context, and an append-only event log with live
// subscribers.
type Job struct {
	ID      string
	Spec    harness.SweepSpec
	Created time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu       sync.Mutex
	state    JobState
	finished time.Time
	runs     []*jobRun
	events   []Event
	subs     map[int]chan Event
	subSeq   int
	errMsg   string
}

// maxEvents bounds a job's event log: every run emits exactly one terminal
// run event, plus one "running" and one terminal job event.
func (j *Job) maxEvents() int { return len(j.runs) + 2 }

// emit appends one event (stamping its sequence number) and fans it out to
// every subscriber. Callers hold j.mu. Subscriber channels are sized for the
// full event budget at subscribe time, so sends never block.
func (j *Job) emit(ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.ID
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		ch <- ev
	}
}

// counts returns (done, failed, cancelled) run tallies. Callers hold j.mu.
func (j *Job) counts() (done, failed, cancelled int) {
	for _, r := range j.runs {
		switch r.state {
		case RunDone:
			done++
		case RunFailed:
			failed++
		case RunCancelled:
			cancelled++
		}
	}
	return
}

// Subscribe returns the event log so far plus a live channel for the rest.
// The channel is closed after the terminal job event (or on unsubscribe);
// the returned cancel must be called when the consumer leaves early.
func (j *Job) Subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		return replay, nil, func() {}
	}
	ch := make(chan Event, j.maxEvents()-len(j.events))
	id := j.subSeq
	j.subSeq++
	j.subs[id] = ch
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// Done exposes the job's terminal-state signal.
func (j *Job) Done() <-chan struct{} { return j.done }

// RunStatus is the wire form of one run inside a status report.
type RunStatus struct {
	Key      string   `json:"key"`
	Workload string   `json:"workload"`
	Scheme   string   `json:"scheme"`
	State    RunState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Stats    *RunInfo `json:"stats,omitempty"`
}

// JobStatus is the wire form of GET /v1/sweeps/{id}.
type JobStatus struct {
	ID        string             `json:"id"`
	State     JobState           `json:"state"`
	Created   time.Time          `json:"created"`
	Finished  *time.Time         `json:"finished,omitempty"`
	Total     int                `json:"total"`
	Done      int                `json:"done"`
	Failed    int                `json:"failed,omitempty"`
	Cancelled int                `json:"cancelled,omitempty"`
	Error     string             `json:"error,omitempty"`
	Spec      *harness.SweepSpec `json:"spec,omitempty"`
	Runs      []RunStatus        `json:"runs,omitempty"`
}

// Status snapshots the job. withRuns includes the per-run list (and the
// spec); the jobs index omits both.
func (j *Job) Status(withRuns bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	done, failed, cancelled := j.counts()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Created:   j.Created,
		Total:     len(j.runs),
		Done:      done,
		Failed:    failed,
		Cancelled: cancelled,
		Error:     j.errMsg,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if withRuns {
		spec := j.Spec
		st.Spec = &spec
		st.Runs = make([]RunStatus, len(j.runs))
		for i, r := range j.runs {
			st.Runs[i] = RunStatus{
				Key:      r.Key,
				Workload: r.Workload,
				Scheme:   r.Scheme,
				State:    r.state,
				Error:    r.err,
				Stats:    r.info,
			}
		}
	}
	return st
}

// ErrDraining rejects submissions once the service has begun its shutdown
// drain.
var ErrDraining = errors.New("service: draining, not accepting new sweeps")

// Manager owns the job table and the bounded active-job queue over one
// shared harness.Runner. Accepted jobs beyond the active bound wait in
// JobQueued order; every job's runs share the runner's memo, singleflight
// and store, so overlapping jobs never duplicate a simulation.
type Manager struct {
	runner  *harness.Runner
	active  chan struct{}
	maxJobs int
	metrics *Metrics

	wg sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string          // submission order, for the jobs index
	touch    map[string]uint64 // last-access stamps, for terminal-job eviction
	touchSeq uint64
	draining bool
}

// NewManager builds a manager executing at most maxActive jobs at a time
// (≤ 0 means 2) on the given runner. maxJobs bounds the job table: once the
// table exceeds it, the least-recently-accessed terminal jobs are evicted
// (≤ 0 means 1024; live jobs are never evicted, so a burst of running
// sweeps may briefly exceed the cap). Evicted jobs drop their status and
// event log, but their run artefacts stay addressable — every result lives
// in the runner's memo and store under its run key, served by /v1/runs/{key}
// independently of the job table.
func NewManager(runner *harness.Runner, maxActive, maxJobs int, metrics *Metrics) *Manager {
	if maxActive <= 0 {
		maxActive = 2
	}
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	return &Manager{
		runner:  runner,
		active:  make(chan struct{}, maxActive),
		maxJobs: maxJobs,
		metrics: metrics,
		jobs:    map[string]*Job{},
		touch:   map[string]uint64{},
	}
}

// Runner exposes the shared run engine (the HTTP layer reads run stats off
// it for artefact endpoints).
func (m *Manager) Runner() *harness.Runner { return m.runner }

// Submit registers the expanded sweep as a job and schedules it. Identical
// sweeps — same content-addressed ID — dedupe onto the existing job at any
// point in its lifecycle; created reports whether this call made a new one.
func (m *Manager) Submit(spec harness.SweepSpec, id string, runs []SweepRun) (j *Job, created bool, err error) {
	m.mu.Lock()
	if existing, ok := m.jobs[id]; ok {
		m.touchLocked(id)
		m.mu.Unlock()
		m.metrics.JobsDeduped.Add(1)
		return existing, false, nil
	}
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	ctx, cancel := context.WithCancel(context.Background())
	j = &Job{
		ID:      id,
		Spec:    spec,
		Created: time.Now().UTC(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobQueued,
		subs:    map[int]chan Event{},
	}
	j.runs = make([]*jobRun, len(runs))
	for i, r := range runs {
		j.runs[i] = &jobRun{SweepRun: r, state: RunPending}
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.touchLocked(id)
	m.evictLocked()
	m.wg.Add(1)
	m.mu.Unlock()

	m.metrics.JobsSubmitted.Add(1)
	go m.execute(j)
	return j, true, nil
}

// Get returns the job with the given ID, marking it recently used.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if ok {
		m.touchLocked(id)
	}
	return j, ok
}

// touchLocked stamps one job as the most recently accessed. A counter, not
// a clock: stamps must be unique so eviction order is total. Callers hold
// m.mu.
func (m *Manager) touchLocked(id string) {
	m.touchSeq++
	m.touch[id] = m.touchSeq
}

// evictLocked drops least-recently-accessed terminal jobs until the table
// fits maxJobs. Live jobs are skipped — a table full of running sweeps
// simply stays over the cap until some finish. Callers hold m.mu; taking
// j.mu under m.mu follows the manager→job lock order used everywhere.
func (m *Manager) evictLocked() {
	for len(m.jobs) > m.maxJobs {
		victim := ""
		var oldest uint64
		for id, j := range m.jobs {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if !terminal {
				continue
			}
			if victim == "" || m.touch[id] < oldest {
				victim, oldest = id, m.touch[id]
			}
		}
		if victim == "" {
			return
		}
		delete(m.jobs, victim)
		delete(m.touch, victim)
		for i, id := range m.order {
			if id == victim {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.metrics.JobsEvicted.Add(1)
	}
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// Cancel cancels the job's context: pending runs never start, the job
// finishes as cancelled. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// SetDraining stops Submit from accepting new jobs (existing ones keep
// running; duplicate submissions of existing jobs still dedupe).
func (m *Manager) SetDraining() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// CancelAll cancels every live job (the drain-deadline escalation).
func (m *Manager) CancelAll() {
	for _, j := range m.Jobs() {
		j.cancel()
	}
}

// Wait blocks until every submitted job has reached a terminal state.
func (m *Manager) Wait() { m.wg.Wait() }

// execute drives one job: wait for an active slot, fan one watcher
// goroutine out per run (the engine's worker pool bounds actual simulations;
// watchers of already-memoized keys return instantly), then finalize.
func (m *Manager) execute(j *Job) {
	defer m.wg.Done()
	select {
	case m.active <- struct{}{}:
	case <-j.ctx.Done():
		m.finalize(j)
		return
	}
	defer func() { <-m.active }()

	j.mu.Lock()
	if j.ctx.Err() != nil {
		j.mu.Unlock()
		m.finalize(j)
		return
	}
	j.state = JobRunning
	done, failed, _ := j.counts()
	j.emit(Event{Type: "job", State: string(JobRunning), Done: done, Failed: failed, Total: len(j.runs)})
	j.mu.Unlock()

	var wg sync.WaitGroup
	for _, r := range j.runs {
		wg.Add(1)
		go func(r *jobRun) {
			defer wg.Done()
			_, err := m.runner.GetCtx(j.ctx, r.Req)
			m.completeRun(j, r, err)
		}(r)
	}
	wg.Wait()
	m.finalize(j)
}

// completeRun records one run's terminal state and emits its event. The
// engine's noteDone seam already ordered the underlying completions; the job
// lock makes the per-job event order a single total order too.
func (m *Manager) completeRun(j *Job, r *jobRun, err error) {
	if st, ok := m.runner.StatsFor(r.Req); ok {
		r.info = runInfoOf(st)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		r.state = RunDone
	case j.ctx.Err() != nil && errors.Is(err, context.Canceled):
		r.state = RunCancelled
	default:
		r.state = RunFailed
		r.err = err.Error()
		m.metrics.RunsFailed.Add(1)
	}
	done, failed, _ := j.counts()
	j.emit(Event{
		Type: "run", State: string(r.state),
		Key: r.Key, Workload: r.Workload, Scheme: r.Scheme,
		Error: r.err, Stats: r.info,
		Done: done, Failed: failed, Total: len(j.runs),
	})
}

// finalize moves the job to its terminal state, emits the closing job event
// and releases every subscriber.
func (m *Manager) finalize(j *Job) {
	j.mu.Lock()
	if j.ctx.Err() != nil {
		// A job cancelled while queued never started its watchers; its
		// untouched runs are cancelled, not pending, in the final report.
		for _, r := range j.runs {
			if r.state == RunPending {
				r.state = RunCancelled
			}
		}
	}
	done, failed, _ := j.counts()
	switch {
	case j.ctx.Err() != nil:
		j.state = JobCancelled
		j.errMsg = "cancelled by request"
		m.metrics.JobsCancelled.Add(1)
	case failed > 0:
		j.state = JobFailed
		j.errMsg = fmt.Sprintf("%d of %d runs failed", failed, len(j.runs))
		m.metrics.JobsFailed.Add(1)
	default:
		j.state = JobDone
		m.metrics.JobsDone.Add(1)
	}
	j.finished = time.Now().UTC()
	j.emit(Event{Type: "job", State: string(j.state), Error: j.errMsg,
		Done: done, Failed: failed, Total: len(j.runs)})
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	j.mu.Unlock()
	j.cancel() // release the context's resources either way
	close(j.done)
}
