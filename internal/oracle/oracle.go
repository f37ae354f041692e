// Package oracle holds the textbook reference implementations that
// tests check the parallel kernels against, and the small fixture
// graphs they run on: a binary-heap Dijkstra for delta-stepping, a
// lazy Prim MST for Borůvka, and random trees, rings and cliques. Only
// _test.go files import it (TestInternalsReached asserts that), so no
// binary links it.
package oracle

import (
	"math"
	"math/rand"

	"snap/internal/graph"
)

// Paths holds single-source shortest-path distances and parents.
// Parent[src] == src; unreachable vertices have Parent -1 and Dist +Inf.
type Paths struct {
	Dist   []float64
	Parent []int32
}

// Dijkstra is the serial shortest-path reference: lazy deletion over a
// binary heap, unit weights on an unweighted graph. Negative weights
// are not supported.
func Dijkstra(g *graph.Graph, src int32) Paths {
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src
	h := &heap{}
	h.push(item{key: 0, v: src})
	for len(h.items) > 0 {
		it := h.pop()
		if it.key > dist[it.v] {
			continue // stale entry
		}
		v := it.v
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			u := g.Adj[a]
			nd := it.key + g.ArcWeight(a)
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = v
				h.push(item{key: nd, v: u})
			}
		}
	}
	return Paths{Dist: dist, Parent: parent}
}

// Forest is a spanning forest: its edge ids and their total weight.
type Forest struct {
	EdgeIDs     []int32
	TotalWeight float64
}

// PrimMST is the serial minimum spanning forest reference (lazy Prim
// over a binary heap, ties broken by edge id). A parallel MST must
// match its total weight on any graph, ties included.
func PrimMST(g *graph.Graph) Forest {
	n := g.NumVertices()
	inTree := make([]bool, n)
	var f Forest
	h := &heap{}
	pushArcs := func(v int32) {
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			if u := g.Adj[a]; !inTree[u] {
				h.push(item{key: g.ArcWeight(a), eid: g.EID[a], v: u})
			}
		}
	}
	for root := int32(0); int(root) < n; root++ {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		pushArcs(root)
		for len(h.items) > 0 {
			it := h.pop()
			if inTree[it.v] {
				continue
			}
			inTree[it.v] = true
			f.EdgeIDs = append(f.EdgeIDs, it.eid)
			f.TotalWeight += it.key
			pushArcs(it.v)
		}
	}
	return f
}

// item is a heap entry: a key, the vertex it reaches and, for Prim,
// the edge that reaches it.
type item struct {
	key float64
	eid int32
	v   int32
}

// heap is a binary min-heap on (key, eid).
type heap struct{ items []item }

func (h *heap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.eid < b.eid
}

func (h *heap) push(it item) {
	h.items = append(h.items, it)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *heap) pop() item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < last && h.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < last && h.less(r, small) {
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

// Tree generates a uniformly random labelled tree on n vertices: each
// vertex i > 0 attaches to a uniform random predecessor. Every edge of
// a tree is a bridge.
func Tree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Ring generates the n-cycle: every vertex has degree 2 and the graph
// is biconnected, so it has no bridges.
func Ring(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + 1) % n), W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Complete generates the complete graph K_n.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j), W: 1})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}
