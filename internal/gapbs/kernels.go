package gapbs

import (
	"fmt"

	"pipm/internal/config"
	"pipm/internal/trace"
)

// Layout places the graph in the machine's shared CXL-DSM heap the way a
// multi-host GAP run lays out its arrays (64-bit words):
//
//	values  [N]   vertex values (dist / rank)          offset 0
//	values2 [N]   double-buffered values (PR)          offset 8N
//	offsets [N+1] CSR row offsets                      offset 16N
//	edges   [M]   CSR adjacency                        offset 24N+8
//
// Vertices are owned in contiguous blocks: host h owns [h·N/H, (h+1)·N/H).
// A vertex's value and adjacency therefore live in its owner's partition of
// the heap — touching a remote neighbour's value is genuine cross-partition
// traffic.
type Layout struct {
	am    config.AddressMap
	g     *Graph
	hosts int
}

// NewLayout validates that the graph fits the shared heap.
func NewLayout(am config.AddressMap, g *Graph, hosts int) (*Layout, error) {
	need := (3*g.N + 1 + g.M()) * 8
	if config.Addr(need) > am.SharedBytes() {
		return nil, fmt.Errorf("gapbs: graph needs %d bytes, shared heap has %d", need, uint64(am.SharedBytes()))
	}
	if hosts < 1 {
		return nil, fmt.Errorf("gapbs: need at least one host")
	}
	return &Layout{am: am, g: g, hosts: hosts}, nil
}

func (l *Layout) valueAddr(v int64) config.Addr {
	return l.am.SharedAddr(config.Addr(v * 8))
}

func (l *Layout) value2Addr(v int64) config.Addr {
	return l.am.SharedAddr(config.Addr((l.g.N + v) * 8))
}

func (l *Layout) offsetAddr(v int64) config.Addr {
	return l.am.SharedAddr(config.Addr((2*l.g.N + v) * 8))
}

func (l *Layout) edgeAddr(i int64) config.Addr {
	return l.am.SharedAddr(config.Addr((3*l.g.N + 1 + i) * 8))
}

// ownerRange returns the vertex block core `core` of host `host` works on.
func (l *Layout) ownerRange(host, core, cores int) (lo, hi int64) {
	hostLo := int64(host) * l.g.N / int64(l.hosts)
	hostHi := int64(host+1) * l.g.N / int64(l.hosts)
	span := hostHi - hostLo
	lo = hostLo + int64(core)*span/int64(cores)
	hi = hostLo + int64(core+1)*span/int64(cores)
	return lo, hi
}

// Kernel selects the graph algorithm a reader executes.
type Kernel uint8

const (
	PageRank Kernel = iota
	BFS
	SSSP
)

func (k Kernel) String() string {
	switch k {
	case PageRank:
		return "pr"
	case BFS:
		return "bfs"
	default:
		return "sssp"
	}
}

// NewReader returns a trace reader that executes the kernel over the graph
// and emits (host, core)'s share of the memory accesses, up to records
// records. The algorithm restarts (next root) when it converges before the
// budget is spent. Deterministic for fixed arguments.
func (l *Layout) NewReader(k Kernel, host, core, cores int, records, seed int64) trace.Reader {
	if host < 0 || host >= l.hosts {
		panic(fmt.Sprintf("gapbs: host %d out of range", host))
	}
	lo, hi := l.ownerRange(host, core, cores)
	r := &kernelReader{
		l: l, k: k,
		lo: lo, hi: hi,
		rng:    trace.NewSource(seed ^ int64(host)<<20 ^ int64(core)<<8 ^ int64(k)),
		run:    int64(seed) + 1,
		values: make([]int64, l.g.N),
	}
	r.Batch = trace.NewBatch(records, r.fill)
	r.reset()
	return r
}

// kernelReader executes iterations of the kernel, emitting the records one
// owned vertex produces at a time.
type kernelReader struct {
	trace.Batch

	l      *Layout
	k      Kernel
	lo, hi int64

	rng *trace.Source
	run int64 // restart counter → new BFS/SSSP roots

	// Algorithm state (whole-graph: every reader recomputes the global
	// algorithm deterministically and emits only its slice's accesses).
	values []int64
	level  int64
	cursor int64 // next owned vertex to process this iteration
	active bool  // any update happened this iteration (global, derived)
}

// fill processes the next owned vertex, or closes the iteration when the
// slice is done.
func (r *kernelReader) fill() {
	if r.cursor >= r.hi {
		// Iteration boundary: advance the global algorithm state.
		if !r.advanceIteration() {
			r.reset() // converged: restart with a new root
		}
		return
	}
	v := r.cursor
	r.cursor++
	r.emitVertex(v)
}

// reset starts a fresh run of the algorithm.
func (r *kernelReader) reset() {
	g := r.l.g
	const inf = int64(1) << 62
	switch r.k {
	case PageRank:
		for i := range r.values {
			r.values[i] = 1
		}
	default:
		for i := range r.values {
			r.values[i] = inf
		}
		root := r.run % g.N
		r.values[root] = 0
	}
	r.run++
	r.level = 0
	r.cursor = r.lo
	r.active = true
}

// advanceIteration closes one sweep/level and reports whether the algorithm
// should continue.
func (r *kernelReader) advanceIteration() bool {
	r.cursor = r.lo
	r.level++
	switch r.k {
	case PageRank:
		return r.level < 16 // fixed sweep count, as GAP's pr -i
	default:
		if !r.active {
			return false
		}
		// Recompute the next frontier globally (deterministic): one
		// synchronous relaxation round over the whole graph.
		r.active = r.relaxAll()
		return r.level < 64
	}
}

// relaxAll performs one global BFS/SSSP round over ALL vertices (not just
// owned ones) so every reader sees the same algorithm state; it reports
// whether anything changed.
func (r *kernelReader) relaxAll() bool {
	g := r.l.g
	changed := false
	for v := int64(0); v < g.N; v++ {
		dv := r.values[v]
		if dv >= 1<<62 || dv != r.level-1 {
			continue // only the current frontier relaxes
		}
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			u := g.Edges[i]
			w := int64(1)
			if r.k == SSSP {
				w = 1 + (v^u)&7 // deterministic pseudo-weight 1..8
			}
			if dv+w < r.values[u] {
				r.values[u] = dv + w
				changed = true
			}
		}
	}
	return changed
}

// emitVertex appends the records vertex v's processing produces this
// iteration: CSR offset reads, a streaming adjacency scan, dependent random
// reads of neighbour values, and the value write.
func (r *kernelReader) emitVertex(v int64) {
	g := r.l.g
	if r.k != PageRank {
		// Frontier check: read own distance; skip non-frontier vertices.
		r.emit(r.l.valueAddr(v), false, false)
		if r.values[v] != r.level {
			return
		}
	}
	// CSR offsets: two sequential reads.
	r.emit(r.l.offsetAddr(v), false, false)
	r.emit(r.l.offsetAddr(v+1), false, false)
	for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
		u := g.Edges[i]
		// Streaming adjacency read, then a dependent random read of the
		// neighbour's value — the defining GAP access pair.
		r.emit(r.l.edgeAddr(i), false, false)
		r.emit(r.l.valueAddr(u), false, true)
		if r.k != PageRank && r.values[u] > r.values[v] {
			// Relaxation writes the neighbour's value.
			r.emit(r.l.valueAddr(u), true, true)
		}
	}
	if r.k == PageRank {
		r.emit(r.l.value2Addr(v), true, false)
	}
}

func (r *kernelReader) emit(addr config.Addr, write, dep bool) {
	gap := uint32(r.rng.Intn(9) + 2) // few ALU ops between memory touches
	r.Emit(trace.Record{Gap: gap, Addr: addr, Write: write, Dep: dep})
}
