// Package graph provides SNAP's graph representations: a cache-friendly
// static CSR (compressed sparse row) adjacency-array form used by every
// analysis kernel, and a dynamic form with resizable adjacency arrays
// plus treap-backed adjacencies for high-degree vertices.
//
// Vertices are dense int32 identifiers in [0, n). Undirected graphs are
// stored as two arcs per edge; both arcs carry the same edge identifier
// in [0, m), which lets kernels attribute per-edge scores (e.g. edge
// betweenness) and mark logical deletions without rebuilding the CSR.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an input edge for graph construction. For undirected graphs
// the orientation of (U, V) is irrelevant.
type Edge struct {
	U, V int32
	W    float64
}

// Graph is an immutable CSR graph. For an undirected graph, every edge
// {u, v} appears as arc u->v and arc v->u, and NumEdges reports the
// number of undirected edges (half the arc count). For a directed
// graph each arc is its own edge.
//
// The slice fields are exported for kernel-speed access by sibling
// internal packages; they must be treated as read-only.
type Graph struct {
	// Offsets has length n+1; the arcs of vertex v occupy
	// Adj[Offsets[v]:Offsets[v+1]] (and the parallel EID/W slices).
	Offsets []int64
	// Adj holds neighbor vertex ids, sorted ascending within each vertex.
	Adj []int32
	// EID holds the edge identifier of each arc. The two arcs of an
	// undirected edge share one id in [0, NumEdges()).
	EID []int32
	// W holds per-arc weights. Nil for unweighted graphs (weight 1).
	W []float64

	directed bool
	numEdges int

	// closer releases the resource backing the slice fields when they
	// alias something with a lifetime — an mmap'd SNP2 container. Nil
	// for ordinary heap-built graphs. See Close.
	closer func() error
	// closed records that a closer actually ran: the slice fields alias
	// a dead mapping and any access faults. Heap-built graphs never set
	// it. See Closed and CheckOpen.
	closed bool
}

// NumVertices reports n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges reports m: undirected edges for undirected graphs, arcs for
// directed graphs.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs reports the number of stored arcs (2m for undirected graphs).
func (g *Graph) NumArcs() int { return len(g.Adj) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether per-edge weights are stored.
func (g *Graph) Weighted() bool { return g.W != nil }

// Degree reports the out-degree of v (the number of stored arcs).
func (g *Graph) Degree(v int32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the (read-only) neighbor slice of v.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeIDs returns the (read-only) per-arc edge-id slice of v, parallel
// to Neighbors(v).
func (g *Graph) EdgeIDs(v int32) []int32 {
	return g.EID[g.Offsets[v]:g.Offsets[v+1]]
}

// ArcWeight returns the weight of arc index a (1 for unweighted graphs).
func (g *Graph) ArcWeight(a int64) float64 {
	if g.W == nil {
		return 1
	}
	return g.W[a]
}

// HasEdge reports whether an arc u->v exists, via binary search over
// the sorted adjacency of u.
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// EdgeIDOf returns the edge id of arc u->v, or -1 when absent.
func (g *Graph) EdgeIDOf(u, v int32) int32 {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return g.EdgeIDs(u)[i]
	}
	return -1
}

// EdgeEndpoints returns, for every edge id, its endpoints (u <= v for
// undirected graphs; tail/head for directed). The result has length
// NumEdges().
func (g *Graph) EdgeEndpoints() []Edge {
	out := make([]Edge, g.numEdges)
	seen := make([]bool, g.numEdges)
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for a := lo; a < hi; a++ {
			id := g.EID[a]
			if seen[id] {
				continue
			}
			seen[id] = true
			out[id] = Edge{U: u, V: g.Adj[a], W: g.ArcWeight(a)}
		}
	}
	return out
}

// MaxDegree reports the largest out-degree in the graph.
func (g *Graph) MaxDegree() int {
	mx := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > mx {
			mx = d
		}
	}
	return mx
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, n=%d, m=%d}", kind, g.NumVertices(), g.numEdges)
}
