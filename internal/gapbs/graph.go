// Package gapbs is a small graph-analytics engine whose only job is to emit
// the true memory-access streams of the GAP benchmark kernels: it builds a
// Kronecker (RMAT) graph in CSR form, lays it out in the simulated machine's
// shared heap exactly as a multi-host GAP run would (vertex arrays plus
// adjacency, partitioned by vertex ownership), and then *executes* BFS,
// PageRank and SSSP over it, recording every load and store as a trace
// record — streaming adjacency scans, dependent random vertex-value reads,
// and genuine cross-partition boundary traffic.
//
// Where internal/workload models the paper's traces statistically, this
// package reproduces them mechanistically; examples/algorithmic cross-
// validates the two (the scheme ordering must agree).
package gapbs

import (
	"fmt"

	"pipm/internal/trace"
)

// Graph is a directed graph in compressed-sparse-row form.
type Graph struct {
	N       int64   // vertices
	Offsets []int64 // len N+1: adjacency of v is Edges[Offsets[v]:Offsets[v+1]]
	Edges   []int64 // destination vertex ids
}

// M returns the edge count.
func (g *Graph) M() int64 { return int64(len(g.Edges)) }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int64) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Kronecker builds an RMAT/Kronecker graph with 2^scale vertices and about
// degree×2^scale edges — the generator the GAP benchmark suite specifies
// (Graph500 parameters A=0.57, B=0.19, C=0.19). Deterministic for a seed.
func Kronecker(scale, degree int, seed int64) *Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("gapbs: scale %d out of range", scale))
	}
	if degree < 1 {
		panic("gapbs: degree must be ≥ 1")
	}
	rng := trace.NewSource(seed)
	n := int64(1) << uint(scale)
	m := n * int64(degree)

	const a, b, c = 0.57, 0.19, 0.19
	srcs := make([]int64, m)
	dsts := make([]int64, m)
	for i := int64(0); i < m; i++ {
		var src, dst int64
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				dst |= 1 << uint(bit)
			case r < a+b+c: // bottom-left
				src |= 1 << uint(bit)
			default: // bottom-right
				src |= 1 << uint(bit)
				dst |= 1 << uint(bit)
			}
		}
		srcs[i], dsts[i] = src, dst
	}

	// Degree-count then place: standard two-pass CSR build.
	offsets := make([]int64, n+1)
	for _, s := range srcs {
		offsets[s+1]++
	}
	for v := int64(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]int64, m)
	cursor := make([]int64, n)
	for i := int64(0); i < m; i++ {
		s := srcs[i]
		edges[offsets[s]+cursor[s]] = dsts[i]
		cursor[s]++
	}
	return &Graph{N: n, Offsets: offsets, Edges: edges}
}

// Uniform builds an Erdős–Rényi-style graph with exactly degree out-edges
// per vertex — a low-skew contrast to Kronecker for tests.
func Uniform(scale, degree int, seed int64) *Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("gapbs: scale %d out of range", scale))
	}
	rng := trace.NewSource(seed)
	n := int64(1) << uint(scale)
	offsets := make([]int64, n+1)
	edges := make([]int64, 0, n*int64(degree))
	for v := int64(0); v < n; v++ {
		offsets[v] = int64(len(edges))
		for d := 0; d < degree; d++ {
			edges = append(edges, rng.Int63n(n))
		}
	}
	offsets[n] = int64(len(edges))
	return &Graph{N: n, Offsets: offsets, Edges: edges}
}
