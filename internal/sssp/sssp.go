// Package sssp implements single-source shortest paths: a binary-heap
// Dijkstra reference and the lock-free parallel delta-stepping
// algorithm (Meyer & Sanders) that SNAP uses for weighted small-world
// graphs, where the low diameter keeps the number of bucket phases
// small. The delta-stepping engine visits each drained vertex once per
// bucket phase and relaxes all of its arcs there, straight from the
// graph's CSR arrays; it relaxes by CAS-min over atomic float64 bit
// patterns and recycles a cyclic bucket window — no mutex anywhere on
// the hot path; see delta.go and DESIGN.md §5e.
package sssp

import (
	"math"

	"snap/internal/graph"
)

// Inf marks unreachable vertices.
var Inf = math.Inf(1)

// Result holds the distance and parent arrays of one SSSP run.
// Parent[src] == src; unreachable vertices have Parent -1 and Dist Inf.
type Result struct {
	Dist   []float64
	Parent []int32
}

// Dijkstra is the serial reference implementation (lazy deletion over a
// binary heap). Negative weights are not supported.
func Dijkstra(g *graph.Graph, src int32) Result {
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src
	h := &distHeap{}
	h.push(distItem{d: 0, v: src})
	for h.len() > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue // stale entry
		}
		v := it.v
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			u := g.Adj[a]
			nd := it.d + arcWeight(g, a)
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = v
				h.push(distItem{d: nd, v: u})
			}
		}
	}
	return Result{Dist: dist, Parent: parent}
}

func arcWeight(g *graph.Graph, a int64) float64 {
	if g.W == nil {
		return 1
	}
	return g.W[a]
}

// DeltaSteppingOptions configures DeltaStepping and Workspace.Run.
type DeltaSteppingOptions struct {
	// Delta is the bucket width. <= 0 selects delta = maxWeight/avgDegree
	// heuristically (and 1 for unweighted graphs, which degenerates to
	// level-synchronous BFS).
	Delta float64
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// Cancel, when non-nil, is polled at every bucket-phase boundary
	// (and per BFS level on the unweighted path). When it reports true
	// the run aborts early: distances are partial and must not be
	// served, but the workspace's clean-state invariant is restored so
	// it remains poolable — abandoned server requests stop consuming
	// CPU within one bucket phase without poisoning the pool.
	Cancel func() bool
	// Stats, when non-nil, receives the run's bucket, phase, drain,
	// visit and arc counts (see Stats); nil records nothing.
	Stats *Stats
}

// DeltaStepping computes SSSP with the lock-free parallel
// delta-stepping label-correcting algorithm. Vertices are kept in
// buckets of width delta; each phase drains the current bucket and
// relaxes every arc of its vertices in parallel, and the bucket is
// drained again until no light edge (w <= delta) refills it. Dist
// matches Dijkstra bit-identically on non-negative weights for any
// delta and worker count; Parent is the smallest certifying tail (the
// deterministic minimum-arc tie-break documented on Workspace.Run),
// kept at relax time at Workers 1 and resolved by a finalize sweep
// above that.
//
// This convenience wrapper acquires a pooled Workspace and copies the
// results out (two allocations). Multi-source loops should hold a
// Workspace and call Run directly: repeated sources on one graph
// allocate nothing once warm.
func DeltaStepping(g *graph.Graph, src int32, opt DeltaSteppingOptions) Result {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.Run(g, src, opt)
	n := g.NumVertices()
	out := Result{Dist: make([]float64, n), Parent: make([]int32, n)}
	copy(out.Dist, ws.dist)
	copy(out.Parent, ws.parent)
	return out
}

// defaultDeltaFor is the paper's bucket-width heuristic
// delta = maxWeight/avgDegree, with the max weight supplied by the
// caller (computed once per run and shared with the cyclic-window
// sizing; see Workspace.maxWeight).
func defaultDeltaFor(g *graph.Graph, maxW float64) float64 {
	avgDeg := float64(g.NumArcs()) / float64(max(1, g.NumVertices()))
	if avgDeg < 1 {
		avgDeg = 1
	}
	d := maxW / avgDeg
	if d <= 0 {
		d = 1
	}
	return d
}

type distItem struct {
	d float64
	v int32
}

type distHeap struct{ items []distItem }

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[i].d >= h.items[p].d {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < last && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
