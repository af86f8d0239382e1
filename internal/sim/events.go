package sim

import "container/heap"

// Event is a closure scheduled to run at a point in simulated time.
type Event struct {
	At  Time
	Fn  func()
	seq uint64 // insertion order, breaks ties deterministically
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a deterministic discrete-event scheduler over one event heap.
// Events run in ascending (At, seq) order, so events scheduled for the same
// instant run in the order they were scheduled.
type Engine struct {
	now     Time
	nextSeq uint64
	events  eventHeap
	ran     uint64
	// free recycles Event boxes between Step and At: the steady state of a
	// simulation schedules roughly one event per event retired, so without a
	// freelist every At is a heap allocation on the hot path.
	free []*Event
}

// maxFree bounds the freelist so a scheduling burst (e.g. the per-core seed
// events at start-up) cannot pin memory for the rest of the run.
const maxFree = 1024

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have executed.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a component bug, and silently reordering time would
// corrupt every downstream measurement.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fn = t, fn
	} else {
		ev = &Event{At: t, Fn: fn}
	}
	ev.seq = e.nextSeq
	e.nextSeq++
	heap.Push(&e.events, ev)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Step runs the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	e.now = ev.At
	e.ran++
	fn := ev.Fn
	// Recycle before running fn: the box is dead once its fields are copied
	// out, and fn's own At calls are exactly where the reuse pays off.
	ev.Fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
	fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].At <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
