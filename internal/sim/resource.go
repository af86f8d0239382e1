package sim

// Resource models a first-come-first-served server with a single queue:
// DRAM channels, CXL link directions and directory slices are all instances.
// A request arriving at time t with service duration d begins at
// max(t, nextFree) and completes at begin+d. The caller receives the
// completion time; the difference between begin and t is queueing delay.
//
// Resources are driven synchronously by the hierarchy walk, which the engine
// invokes in (approximately) global time order, so FCFS holds to within one
// walk. This is the standard fast-simulator approximation.
type Resource struct {
	nextFree Time

	// Accounting.
	busy     Time   // total service time accumulated
	queued   Time   // total queueing delay accumulated
	requests uint64 // number of Acquire calls
}

// NewResource returns an idle resource.
func NewResource() *Resource { return &Resource{} }

// Acquire reserves the resource for service duration d starting no earlier
// than now, and returns the completion time.
func (r *Resource) Acquire(now Time, d Time) Time {
	start := now
	if r.nextFree > start {
		r.queued += r.nextFree - start
		start = r.nextFree
	}
	r.nextFree = start + d
	r.busy += d
	r.requests++
	return r.nextFree
}

// NextFree returns the earliest time a new request could begin service.
func (r *Resource) NextFree() Time { return r.nextFree }

// BusyTime returns the total service time accumulated.
func (r *Resource) BusyTime() Time { return r.busy }

// QueueDelay returns the total queueing delay accumulated across requests.
func (r *Resource) QueueDelay() Time { return r.queued }

// Requests returns the number of Acquire calls.
func (r *Resource) Requests() uint64 { return r.requests }

// Utilization reports busy time as a fraction of the elapsed window.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / float64(elapsed)
}

// Reset returns the resource to idle and clears accounting.
func (r *Resource) Reset() {
	r.nextFree, r.busy, r.queued, r.requests = 0, 0, 0, 0
}

// Pipe models a bandwidth-limited, full-duplex-unaware byte channel (one
// direction of a CXL link, one DRAM channel's data bus). Transfers serialize
// at the configured bytes/second on top of an optional fixed propagation
// delay paid once per transfer, after serialization.
type Pipe struct {
	res         *Resource
	picosPerByt float64 // serialization cost per byte, in picoseconds
	propagation Time
	bytesMoved  uint64
}

// NewPipe returns a pipe with the given bandwidth in bytes/second and fixed
// propagation delay. Bandwidth must be positive.
func NewPipe(bytesPerSecond float64, propagation Time) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{
		res:         NewResource(),
		picosPerByt: float64(Second) / bytesPerSecond,
		propagation: propagation,
	}
}

// Send enqueues a transfer of n bytes at time now and returns the time the
// last byte arrives at the far end (serialization queueing + propagation).
func (p *Pipe) Send(now Time, n int) Time {
	serial := Time(float64(n) * p.picosPerByt)
	if serial < Picosecond {
		serial = Picosecond
	}
	p.bytesMoved += uint64(n)
	done := p.res.Acquire(now, serial)
	return done + p.propagation
}

// Propagation returns the fixed per-transfer propagation delay.
func (p *Pipe) Propagation() Time { return p.propagation }

// BytesMoved returns the total payload bytes sent.
func (p *Pipe) BytesMoved() uint64 { return p.bytesMoved }

// BusyTime returns total serialization time accumulated.
func (p *Pipe) BusyTime() Time { return p.res.BusyTime() }

// Requests returns the number of transfers sent.
func (p *Pipe) Requests() uint64 { return p.res.Requests() }

// QueueDelay returns total queueing delay accumulated.
func (p *Pipe) QueueDelay() Time { return p.res.QueueDelay() }

// Utilization reports serialization busy time over the elapsed window.
func (p *Pipe) Utilization(elapsed Time) float64 { return p.res.Utilization(elapsed) }

// Reset returns the pipe to idle and clears accounting.
func (p *Pipe) Reset() {
	p.res.Reset()
	p.bytesMoved = 0
}
