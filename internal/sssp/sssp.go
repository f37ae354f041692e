// Package sssp implements single-source shortest paths with the
// delta-stepping algorithm (Meyer & Sanders) that SNAP uses for
// weighted small-world graphs, where the low diameter keeps the number
// of bucket phases small. The engine visits each drained vertex once
// per bucket phase and relaxes all of its arcs there, straight from
// the graph's CSR arrays, into a recycled cyclic bucket window. One
// goroutine relaxes: a parallel arm with CAS-min relaxation lost to
// this loop on two cores, so callers parallelise across sources
// instead; see delta.go and DESIGN.md §5e.
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

// DeltaSteppingOptions configures DeltaStepping and Workspace.Run.
type DeltaSteppingOptions struct {
	// Delta is the bucket width. <= 0 selects delta = maxWeight/avgDegree
	// heuristically (and 1 for unweighted graphs, which degenerates to
	// level-synchronous BFS).
	Delta float64
	// Workers bounds the parallelism of the unweighted path's bottom-up
	// sweeps; <= 0 means par.Workers(). Weighted runs relax on one
	// goroutine whatever it says.
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

// DeltaStepping computes SSSP with the delta-stepping
// label-correcting algorithm. Vertices are kept in buckets of width
// delta; each phase drains the current bucket and relaxes every arc of
// its vertices, and the bucket is drained again until no light edge
// (w <= delta) refills it. Dist matches Dijkstra bit-identically on
// non-negative weights for any delta; Parent is the smallest
// certifying tail (the deterministic minimum-arc tie-break documented
// on Workspace.Run), kept at relax time.
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
