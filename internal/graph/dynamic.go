package graph

import (
	"fmt"
	"sort"

	"snap/internal/treap"
)

// DefaultTreapThreshold is the degree above which a dynamic vertex's
// adjacency switches from an unsorted resizable array to a treap, per
// the paper's hybrid representation for skewed degree distributions.
const DefaultTreapThreshold = 64

// Dynamic is a mutable graph supporting edge insertion and deletion.
// Low-degree vertices keep a small unsorted adjacency array (append is
// O(1), delete is O(deg)); once a vertex's degree exceeds the treap
// threshold its adjacency migrates to a treap with O(log deg) updates
// and membership tests.
//
// Dynamic is not safe for concurrent mutation; freeze it with ToCSR
// before handing it to parallel kernels.
type Dynamic struct {
	directed  bool
	threshold int
	numEdges  int
	small     [][]int32
	big       []*treap.Treap // nil until a vertex crosses the threshold
}

// NewDynamic returns an empty dynamic graph with n vertices.
func NewDynamic(n int, directed bool) *Dynamic {
	return &Dynamic{
		directed:  directed,
		threshold: DefaultTreapThreshold,
		small:     make([][]int32, n),
		big:       make([]*treap.Treap, n),
	}
}

// SetTreapThreshold overrides the degree threshold for migrating a
// vertex's adjacency to a treap. Vertices already migrated stay
// migrated. A threshold < 1 forces treaps for every vertex.
func (d *Dynamic) SetTreapThreshold(t int) { d.threshold = t }

// NumVertices reports the number of vertices.
func (d *Dynamic) NumVertices() int { return len(d.small) }

// NumEdges reports the number of edges (undirected) or arcs (directed).
func (d *Dynamic) NumEdges() int { return d.numEdges }

// Directed reports whether the graph is directed.
func (d *Dynamic) Directed() bool { return d.directed }

// Degree reports the out-degree of v.
func (d *Dynamic) Degree(v int32) int {
	if t := d.big[v]; t != nil {
		return t.Len()
	}
	return len(d.small[v])
}

// HasEdge reports whether the arc u->v exists.
func (d *Dynamic) HasEdge(u, v int32) bool {
	if t := d.big[u]; t != nil {
		return t.Contains(v)
	}
	for _, x := range d.small[u] {
		if x == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the edge (u, v), reporting whether it was new.
// Self-loops and out-of-range endpoints are an error.
func (d *Dynamic) AddEdge(u, v int32) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if d.HasEdge(u, v) {
		return false, nil
	}
	d.insertArc(u, v)
	if !d.directed {
		d.insertArc(v, u)
	}
	d.numEdges++
	return true, nil
}

// DeleteEdge removes the edge (u, v), reporting whether it existed.
func (d *Dynamic) DeleteEdge(u, v int32) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if !d.deleteArc(u, v) {
		return false, nil
	}
	if !d.directed {
		d.deleteArc(v, u)
	}
	d.numEdges--
	return true, nil
}

func (d *Dynamic) check(u, v int32) error {
	n := int32(len(d.small))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: endpoint out of range: (%d,%d), n=%d", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not supported", u, v)
	}
	return nil
}

func (d *Dynamic) insertArc(u, v int32) {
	if t := d.big[u]; t != nil {
		t.Insert(v)
		return
	}
	d.small[u] = append(d.small[u], v)
	if len(d.small[u]) > d.threshold {
		t := treap.FromKeys(int64(u)*0x9E3779B9+1, d.small[u])
		d.big[u] = t
		d.small[u] = nil
	}
}

func (d *Dynamic) deleteArc(u, v int32) bool {
	if t := d.big[u]; t != nil {
		return t.Delete(v)
	}
	adj := d.small[u]
	for i, x := range adj {
		if x == v {
			adj[i] = adj[len(adj)-1]
			d.small[u] = adj[:len(adj)-1]
			return true
		}
	}
	return false
}

// Neighbors returns the neighbors of v in ascending order (a fresh
// slice; mutating it does not affect the graph).
func (d *Dynamic) Neighbors(v int32) []int32 {
	if t := d.big[v]; t != nil {
		return t.Keys()
	}
	out := append([]int32(nil), d.small[v]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachNeighbor calls f for every neighbor of v (unspecified order).
func (d *Dynamic) EachNeighbor(v int32, f func(u int32)) {
	if t := d.big[v]; t != nil {
		t.Each(func(k int32) bool { f(k); return true })
		return
	}
	for _, u := range d.small[v] {
		f(u)
	}
}

// ToCSR freezes the dynamic graph into an immutable CSR graph. The
// edge list is preallocated from NumEdges(), and internal Build
// failures surface as errors instead of panics.
//
// For sustained update/snapshot workloads prefer ingest.Stream, which
// merges batched deltas against the previous snapshot instead of
// re-materializing the whole edge list; Dynamic remains the
// point-update compatibility structure from the paper's hybrid
// array/treap representation.
func (d *Dynamic) ToCSR() (*Graph, error) {
	edges := make([]Edge, 0, d.NumEdges())
	n := int32(d.NumVertices())
	for u := int32(0); u < n; u++ {
		d.EachNeighbor(u, func(v int32) {
			if d.directed || u < v {
				edges = append(edges, Edge{U: u, V: v})
			}
		})
	}
	g, err := Build(int(n), edges, BuildOptions{Directed: d.directed})
	if err != nil {
		return nil, fmt.Errorf("graph: ToCSR: %w", err)
	}
	return g, nil
}
