package graph

import (
	"fmt"
	"math"
)

// InducedSubgraph returns the subgraph of g induced by the given
// vertices, together with the mapping from new vertex ids to the
// original ids (origOf[new] == old). Duplicate vertices are an error.
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, []int32, error) {
	if err := g.CheckOpen(); err != nil {
		return nil, nil, err
	}
	n := g.NumVertices()
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	origOf := make([]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("graph: induced: vertex %d out of range", v)
		}
		if newID[v] != -1 {
			return nil, nil, fmt.Errorf("graph: induced: duplicate vertex %d", v)
		}
		newID[v] = int32(i)
		origOf[i] = v
	}
	var edges []Edge
	for i, v := range vertices {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			u := g.Adj[a]
			nu := newID[u]
			if nu < 0 {
				continue
			}
			if !g.Directed() && nu < int32(i) {
				continue // counted from the other endpoint
			}
			if !g.Directed() && nu == int32(i) {
				continue
			}
			edges = append(edges, Edge{U: int32(i), V: nu, W: g.ArcWeight(a)})
		}
	}
	sub, err := Build(len(vertices), edges, BuildOptions{
		Directed: g.Directed(),
		Weighted: g.Weighted(),
	})
	if err != nil {
		return nil, nil, err
	}
	return sub, origOf, nil
}

// Validate checks the structural invariants of a CSR graph: monotone
// offsets, in-range adjacency, sorted neighbor lists, in-range edge
// ids, finite non-negative weights, and — for undirected graphs — arc
// symmetry with matching edge ids. It is used by tests and by the SNP2
// container's validating load.
func Validate(g *Graph) error {
	n := g.NumVertices()
	if len(g.Offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d != n+1", len(g.Offsets))
	}
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offsets endpoints invalid")
	}
	if len(g.EID) != len(g.Adj) {
		return fmt.Errorf("graph: EID length mismatch")
	}
	if g.W != nil && len(g.W) != len(g.Adj) {
		return fmt.Errorf("graph: W length mismatch")
	}
	for v := 0; v < n; v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if lo > hi {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		for a := lo; a < hi; a++ {
			u := g.Adj[a]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: arc %d->%d out of range", v, u)
			}
			if a > lo && g.Adj[a-1] > u {
				return fmt.Errorf("graph: adjacency of %d not sorted", v)
			}
			if id := g.EID[a]; id < 0 || int(id) >= g.numEdges {
				return fmt.Errorf("graph: edge id %d out of range [0,%d)", id, g.numEdges)
			}
			if g.W != nil {
				if err := checkWeight(g.W[a]); err != nil {
					return fmt.Errorf("graph: arc %d->%d: %w", v, u, err)
				}
			}
		}
	}
	if !g.Directed() {
		for v := int32(0); int(v) < n; v++ {
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			for a := lo; a < hi; a++ {
				u := g.Adj[a]
				if back := g.EdgeIDOf(u, v); back != g.EID[a] {
					return fmt.Errorf("graph: asymmetric arc %d->%d (eid %d vs %d)", v, u, g.EID[a], back)
				}
			}
		}
	}
	return nil
}

// checkWeight rejects an edge weight delta-stepping cannot take: a
// negative, infinite or NaN one.
func checkWeight(w float64) error {
	if w >= 0 && w <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("edge weight %v is not finite and non-negative", w)
}
