package sketch

import (
	"fmt"

	"snap/internal/bfs"
	"snap/internal/graph"
	"snap/internal/par"
)

// OracleOptions configures landmark selection for BuildOracle.
type OracleOptions struct {
	// Landmarks is the number of pivot vertices k; 0 means 16. Build
	// cost is one BFS sweep per landmark; queries cost O(k).
	Landmarks int
	// Workers bounds parallelism of the build sweeps; <= 0 means
	// par.Workers().
	Workers int
}

// Oracle answers point-to-point distance queries in O(k) from k
// precomputed landmark BFS vectors: for every landmark L with
// distances dL, the triangle inequality brackets the true distance as
//
//	max_L |dL(s) − dL(t)|  <=  d(s, t)  <=  min_L dL(s) + dL(t).
//
// The structure is immutable after construction and safe for
// concurrent queries — the serving primitive for a long-lived
// analytics service. Memory is k·n int32s.
type Oracle struct {
	landmarks []int32
	n         int
	dist      []int32 // row i = distances from landmarks[i]; -1 unreached
}

// BuildOracle selects the k highest-degree vertices as landmarks (hubs
// sit on many shortest paths, tightening upper bounds; ties toward the
// smaller id) and runs one multi-source BFS sweep to record their
// distance vectors. Directed graphs are rejected: the two-sided
// triangle-inequality bracket needs a symmetric metric (wrap the graph
// with graph.Undirected first, or serve one-sided bounds from a future
// directed variant).
func BuildOracle(g *graph.Graph, opt OracleOptions) (*Oracle, error) {
	if g.Directed() {
		return nil, fmt.Errorf("sketch: landmark oracle requires an undirected graph (triangle-inequality bounds need a symmetric metric); symmetrize with graph.Undirected first")
	}
	n := g.NumVertices()
	k := opt.Landmarks
	if k <= 0 {
		k = 16
	}
	if k > n {
		k = n
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	o := &Oracle{n: n}
	if n == 0 || k == 0 {
		return o, nil
	}
	o.landmarks = topDegree(g, k)
	o.dist = make([]int32, len(o.landmarks)*n)
	// One pooled-workspace BFS per landmark, landmarks processed
	// concurrently; each fills its own disjoint row.
	bfs.MultiSourceWorkspace(g, o.landmarks, -1, workers, func(_, i int, ws *bfs.Workspace) {
		o.fillRow(i, ws)
	})
	return o, nil
}

// fillRow materializes one landmark's distance vector from a finished
// traversal (-1 for unreached vertices).
func (o *Oracle) fillRow(i int, ws *bfs.Workspace) {
	row := o.dist[i*o.n : (i+1)*o.n]
	for j := range row {
		row[j] = -1
	}
	for _, v := range ws.Order() {
		row[v] = ws.Dist(v)
	}
}

// topDegree returns the k highest-degree vertices (ties toward the
// smaller id) via a bounded min-heap — O(n log k).
func topDegree(g *graph.Graph, k int) []int32 {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	heap := make([]int32, 0, k)
	// a ranks strictly below b: lower degree, ties toward larger id
	// (so the tied smaller id displaces it).
	worse := func(a, b int32) bool {
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da < db
		}
		return a > b
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && worse(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && worse(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(heap[i], heap[p]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if len(heap) < k {
			heap = append(heap, v)
			up(len(heap) - 1)
		} else if worse(heap[0], v) {
			heap[0] = v
			down(0)
		}
	}
	out := make([]int32, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
	}
	return out
}

// Estimate brackets d(s, t) by the triangle inequality over every
// landmark: lo <= d(s, t) <= hi. Exact (lo == hi) whenever s or t is a
// landmark or some landmark lies on a shortest s–t path. Returns
// (-1, -1) when the landmarks prove s and t disconnected (some
// landmark reaches exactly one of them) or no landmark reaches either.
// Zero allocations; safe for concurrent use.
func (o *Oracle) Estimate(s, t int32) (lo, hi int32) {
	if s == t {
		return 0, 0
	}
	lo, hi = -1, -1
	for i := range o.landmarks {
		row := o.dist[i*o.n : (i+1)*o.n]
		ds, dt := row[s], row[t]
		if ds < 0 || dt < 0 {
			if ds >= 0 || dt >= 0 {
				// The landmark's component contains exactly one of
				// s, t: on an undirected graph they are disconnected.
				return -1, -1
			}
			continue
		}
		d := ds - dt
		if d < 0 {
			d = -d
		}
		u := ds + dt
		if lo == -1 || d > lo {
			lo = d
		}
		if hi == -1 || u < hi {
			hi = u
		}
	}
	return lo, hi
}
