package components

import (
	"slices"

	"snap/internal/graph"
	"snap/internal/par"
)

// MST is a minimum spanning forest.
type MST struct {
	// EdgeIDs are the ids of the chosen forest edges.
	EdgeIDs []int32
	// TotalWeight is the sum of chosen edge weights.
	TotalWeight float64
}

// BoruvkaMST computes a minimum spanning forest with parallel Borůvka
// iterations: each round finds, in parallel, the lightest incident edge
// of every current component (ties broken by edge id for determinism),
// then contracts the chosen edges with a union-find. Small-world graphs
// need only O(log n) rounds. Unweighted graphs yield an arbitrary
// (deterministic) spanning forest of weight = #edges chosen. The result
// — EdgeIDs in order and TotalWeight bit for bit — is the same on every
// run and at every worker count.
func BoruvkaMST(g *graph.Graph, workers int) MST {
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	uf := NewUnionFind(n)
	var chosen []int32
	var total float64

	endpoints := g.EdgeEndpoints()

	for {
		// best[rep] = lightest edge leaving that component this round.
		best := make(map[int32]mstCand)
		// Compute per-worker candidate maps, then merge. (On small
		// graphs one worker wins; on big graphs maps stay private
		// until the cheap merge.)
		results := make([]map[int32]mstCand, workers)
		par.ForChunkedN(len(endpoints), workers, func(w, lo, hi int) {
			local := make(map[int32]mstCand)
			for i := lo; i < hi; i++ {
				e := endpoints[i]
				ru, rv := uf.findRO(e.U), uf.findRO(e.V)
				if ru == rv {
					continue
				}
				wgt := e.W
				if !g.Weighted() {
					wgt = 1
				}
				c := mstCand{w: wgt, eid: int32(i), u: ru, v: rv}
				for _, r := range [2]int32{ru, rv} {
					if cur, ok := local[r]; !ok || less(c, cur) {
						local[r] = c
					}
				}
			}
			results[w] = local
		})
		for _, local := range results {
			for r, c := range local {
				if cur, ok := best[r]; !ok || less(c, cur) {
					best[r] = c
				}
			}
		}
		if len(best) == 0 {
			break
		}
		// Contract in ascending representative order, so the forest's
		// edge order and the summation order of its weight do not depend
		// on map iteration.
		reps := make([]int32, 0, len(best))
		for r := range best {
			reps = append(reps, r)
		}
		slices.Sort(reps)
		merged := 0
		for _, r := range reps {
			c := best[r]
			if uf.Union(c.u, c.v) {
				chosen = append(chosen, c.eid)
				total += c.w
				merged++
			}
		}
		if merged == 0 {
			break
		}
	}
	return MST{EdgeIDs: chosen, TotalWeight: total}
}

// mstCand is a candidate lightest edge for one component in a Borůvka
// round: weight, edge id, and the two component representatives.
type mstCand struct {
	w    float64
	eid  int32
	u, v int32
}

func less(a, b mstCand) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.eid < b.eid
}

// findRO is Find without path mutation, safe for concurrent readers
// while no Union is in flight.
func (u *UnionFind) findRO(v int32) int32 {
	for u.parent[v] != v {
		v = u.parent[v]
	}
	return v
}

// PrimMST is the serial reference MST (lazy Prim over a binary heap),
// used to validate BoruvkaMST: both must produce forests of identical
// total weight on any graph with distinct weights, and identical weight
// on ties as well (weight, not edge set, is the invariant).
func PrimMST(g *graph.Graph) MST {
	n := g.NumVertices()
	inTree := make([]bool, n)
	var chosen []int32
	var total float64
	h := &edgeHeap{}
	for root := int32(0); int(root) < n; root++ {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		pushArcs(g, root, inTree, h)
		for h.len() > 0 {
			it := h.pop()
			if inTree[it.to] {
				continue
			}
			inTree[it.to] = true
			chosen = append(chosen, it.eid)
			total += it.w
			pushArcs(g, it.to, inTree, h)
		}
	}
	return MST{EdgeIDs: chosen, TotalWeight: total}
}

func pushArcs(g *graph.Graph, v int32, inTree []bool, h *edgeHeap) {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	for a := lo; a < hi; a++ {
		u := g.Adj[a]
		if inTree[u] {
			continue
		}
		w := g.ArcWeight(a)
		if !g.Weighted() {
			w = 1
		}
		h.push(heapItem{w: w, eid: g.EID[a], to: u})
	}
}

type heapItem struct {
	w   float64
	eid int32
	to  int32
}

// edgeHeap is a minimal binary min-heap on (w, eid).
type edgeHeap struct{ items []heapItem }

func (h *edgeHeap) len() int { return len(h.items) }

func (h *edgeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.lessAt(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *edgeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.lessAt(l, small) {
			small = l
		}
		if r < last && h.lessAt(r, small) {
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

func (h *edgeHeap) lessAt(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.w != b.w {
		return a.w < b.w
	}
	return a.eid < b.eid
}

// SpanningForest returns a BFS spanning forest as parent edge ids
// (-1 at roots and unreached-impossible positions).
func SpanningForest(g *graph.Graph) []int32 {
	n := g.NumVertices()
	parentEdge := make([]int32, n)
	visited := make([]bool, n)
	for i := range parentEdge {
		parentEdge[i] = -1
	}
	queue := make([]int32, 0, 256)
	for root := int32(0); int(root) < n; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			for a := lo; a < hi; a++ {
				u := g.Adj[a]
				if !visited[u] {
					visited[u] = true
					parentEdge[u] = g.EID[a]
					queue = append(queue, u)
				}
			}
		}
	}
	return parentEdge
}
