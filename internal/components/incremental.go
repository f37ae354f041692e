package components

import "snap/internal/graph"

// Incremental connectivity for dynamic networks — the paper's stated
// future-work direction ("extend SNAP to support the topological
// analysis of dynamic networks"). Edge insertions are processed online
// in near-constant amortized time by union-find.

// Incremental maintains connected components of a growing graph.
type Incremental struct {
	uf    *UnionFind
	comps int
	edges int
}

// NewIncremental returns an incremental connectivity index over n
// isolated vertices (n components).
func NewIncremental(n int) *Incremental {
	return &Incremental{uf: NewUnionFind(n), comps: n}
}

// AddEdge records the edge (u, v), reporting whether it merged two
// previously separate components.
func (inc *Incremental) AddEdge(u, v int32) bool {
	inc.edges++
	if inc.uf.Union(u, v) {
		inc.comps--
		return true
	}
	return false
}

// AddEdges records a batch of edges, returning the number of component
// merges it caused. Self-loops in the batch are harmless no-ops for
// connectivity (they never merge) but still count as processed
// insertions.
func (inc *Incremental) AddEdges(edges []graph.Edge) int {
	merged := 0
	for _, e := range edges {
		if inc.AddEdge(e.U, e.V) {
			merged++
		}
	}
	return merged
}

// Connected reports whether u and v are currently in one component.
func (inc *Incremental) Connected(u, v int32) bool {
	return inc.uf.Find(u) == inc.uf.Find(v)
}

// Components reports the current number of connected components.
func (inc *Incremental) Components() int { return inc.comps }

// Edges reports the number of AddEdge operations processed — an
// operation count, not a distinct-edge count: redundant insertions of
// an already-connected pair and duplicate insertions of the same pair
// each increment it, so it can exceed the number of distinct edges in
// the underlying graph.
func (inc *Incremental) Edges() int { return inc.edges }

// Labeling materializes the current component labeling.
func (inc *Incremental) Labeling() Labeling { return inc.uf.Labeling() }
