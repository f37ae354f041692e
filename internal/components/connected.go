// Package components implements SNAP's connectivity kernels: connected
// components (a direction-optimizing BFS sweep, and union-find for
// weak components of directed graphs), spanning forests, Borůvka minimum
// spanning forests, and biconnected components with articulation-point
// and bridge detection. Bridges and articulation points are the
// preprocessing step behind the pBD and pLA community algorithms.
package components

import (
	"snap/internal/frontier"
	"snap/internal/graph"
)

// Labeling describes a partition of the vertices into components.
type Labeling struct {
	// Comp maps each vertex to a dense component id in [0, Count).
	Comp []int32
	// Count is the number of components.
	Count int
}

// Sizes returns the number of vertices in each component.
func (l Labeling) Sizes() []int {
	sizes := make([]int, l.Count)
	for _, c := range l.Comp {
		sizes[c]++
	}
	return sizes
}

// Members returns the vertices of every component.
func (l Labeling) Members() [][]int32 {
	out := make([][]int32, l.Count)
	for c, s := range l.Sizes() {
		out[c] = make([]int32, 0, s)
	}
	for v, c := range l.Comp {
		out[c] = append(out[c], int32(v))
	}
	return out
}

// Largest returns the id and size of the largest component.
func (l Labeling) Largest() (id int32, size int) {
	for c, s := range l.Sizes() {
		if s > size {
			id, size = int32(c), s
		}
	}
	return id, size
}

// Connected computes connected components. When alive is non-nil,
// only edges with Alive[eid] == true are considered — the filtered
// view used inside the divisive clustering loop. Directed graphs are
// treated as undirected (weak connectivity).
//
// Undirected graphs run a BFS sweep through the shared frontier
// engine: each unlabeled vertex in ascending order seeds a traversal
// that stamps its whole component, so labels come out in
// smallest-member order — the same dense numbering denseLabels
// produces — while reusing one pooled epoch-stamped engine instead of
// a union-find array pass. Each traversal is direction-optimizing:
// membership does not depend on parents, so the giant component of a
// small-world graph is swept bottom-up through its dense middle
// levels. Directed graphs keep the union-find (out-adjacency alone
// cannot discover weak components).
func Connected(g *graph.Graph, alive []bool) Labeling {
	n := g.NumVertices()
	if g.Directed() {
		uf := NewUnionFind(n)
		for v := int32(0); int(v) < n; v++ {
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			for a := lo; a < hi; a++ {
				if alive != nil && !alive[g.EID[a]] {
					continue
				}
				uf.Union(v, g.Adj[a])
			}
		}
		return uf.Labeling()
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	e := frontier.AcquireEngine(n)
	defer frontier.ReleaseEngine(e)
	opt := frontier.Options{Workers: 1, Alive: alive, MaxDepth: -1, Alpha: frontier.DefaultAlpha}
	var count int32
	for v := int32(0); int(v) < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		e.RunOptions(g, v, opt)
		for _, u := range e.Order() {
			comp[u] = count
		}
		count++
	}
	return Labeling{Comp: comp, Count: int(count)}
}

// denseLabels renumbers arbitrary representative labels to [0, Count).
func denseLabels(label []int32) Labeling {
	remap := make(map[int32]int32, 64)
	comp := make([]int32, len(label))
	for v, l := range label {
		id, ok := remap[l]
		if !ok {
			id = int32(len(remap))
			remap[l] = id
		}
		comp[v] = id
	}
	return Labeling{Comp: comp, Count: len(remap)}
}

// UnionFind is a weighted-union, path-halving disjoint-set forest over
// int32 vertex ids.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &UnionFind{parent: p, rank: make([]int8, n)}
}

// Find returns the representative of v's set.
func (u *UnionFind) Find(v int32) int32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]] // path halving
		v = u.parent[v]
	}
	return v
}

// Union merges the sets of a and b, reporting whether they were
// previously distinct.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Labeling converts the forest to a dense component labeling.
func (u *UnionFind) Labeling() Labeling {
	label := make([]int32, len(u.parent))
	for v := range label {
		label[v] = u.Find(int32(v))
	}
	return denseLabels(label)
}
