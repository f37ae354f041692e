package centrality

import (
	"math"

	"snap/internal/graph"
	"snap/internal/par"
)

// WeightedBetweenness computes exact betweenness centrality on a graph
// with positive edge weights, using Brandes' algorithm with Dijkstra
// traversals (the paper's path definitions sum edge weights; this is
// the weighted counterpart of the BFS-based kernel) on the same
// source-ordered driver. Unweighted graphs fall back to the faster BFS
// variant.
func WeightedBetweenness(g *graph.Graph, opt BetweennessOptions) Scores {
	if !g.Weighted() {
		return Betweenness(g, opt)
	}
	return brandes(g, opt, acquireDijkstraBrandes)
}

// dijkstraBrandes is the Dijkstra sweeper. Like brandesState, its
// vertex-indexed arrays keep a clean invariant between sweeps — dist
// +Inf, sigma/delta 0, done false — restored sparsely over the settle
// order by fold, so acquiring a pooled state and running many sources
// does no O(n) re-initialization.
type dijkstraBrandes struct {
	dist  []float64 // clean: +Inf
	sigma []float64 // clean: 0
	delta []float64 // clean: 0
	done  []bool    // clean: false
	order []int32   // vertices in settle order (emptied per sweep)
	heap  []wbItem  // binary min-heap scratch (emptied per sweep)
	log   []edgeDep // a logged sweep's edge dependencies (emptied by fold)
}

// wbPool amortizes weighted-Brandes scratch across calls.
var wbPool = par.NewPool(func() *dijkstraBrandes { return &dijkstraBrandes{} })

// acquireDijkstraBrandes returns a pooled state sized for n vertices,
// satisfying the clean invariant.
func acquireDijkstraBrandes(n int) sweeper {
	st := wbPool.Get()
	if cap(st.dist) < n {
		// Fresh allocations are filled to capacity so later in-capacity
		// regrows stay clean; previously used entries were restored by
		// the fold that followed the sweep that touched them.
		st.dist = make([]float64, n)
		st.dist = st.dist[:cap(st.dist)]
		for i := range st.dist {
			st.dist[i] = math.Inf(1)
		}
		st.sigma = make([]float64, cap(st.dist))
		st.delta = make([]float64, cap(st.dist))
		st.done = make([]bool, cap(st.dist))
	}
	st.dist = st.dist[:n]
	st.sigma = st.sigma[:n]
	st.delta = st.delta[:n]
	st.done = st.done[:n]
	return st
}

func (st *dijkstraBrandes) release() { wbPool.Put(st) }

// wbItem is one heap entry: a tentative distance and its vertex.
type wbItem struct {
	d float64
	v int32
}

// hpush/hpop are a hand-rolled binary min-heap on st.heap. The stdlib
// container/heap interface moves items through interface{} values and
// allocates on every Push; with one push per successful relaxation that
// dominated the allocation profile of WeightedBetweenness.
func (st *dijkstraBrandes) hpush(it wbItem) {
	h := append(st.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].d >= h[p].d {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	st.heap = h
}

func (st *dijkstraBrandes) hpop() wbItem {
	h := st.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h[l].d < h[small].d {
			small = l
		}
		if r < last && h[r].d < h[small].d {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	st.heap = h
	return top
}

const wbEps = 1e-12

func (st *dijkstraBrandes) sweep(g *graph.Graph, s int32, alive []bool, edge []float64, logEdges bool) {
	dist, sigma, delta := st.dist, st.sigma, st.delta
	order := st.order[:0]
	dist[s] = 0
	sigma[s] = 1
	st.heap = append(st.heap[:0], wbItem{d: 0, v: s})
	for len(st.heap) > 0 {
		it := st.hpop()
		v := it.v
		if st.done[v] {
			continue
		}
		st.done[v] = true
		order = append(order, v)
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			u := g.Adj[a]
			nd := dist[v] + g.W[a]
			switch {
			case nd < dist[u]-wbEps:
				dist[u] = nd
				sigma[u] = sigma[v]
				st.hpush(wbItem{d: nd, v: u})
			case math.Abs(nd-dist[u]) <= wbEps:
				sigma[u] += sigma[v]
			}
		}
	}
	st.order = order
	// Dependency accumulation in reverse settle order; predecessors
	// are the neighbors v with dist[v] + w(v,w) == dist[w].
	for i := len(order) - 1; i > 0; i-- {
		w := order[i]
		coeff := (1 + delta[w]) / sigma[w]
		lo, hi := g.Offsets[w], g.Offsets[w+1]
		for a := lo; a < hi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			v := g.Adj[a]
			if math.Abs(dist[v]+g.W[a]-dist[w]) <= wbEps {
				c := sigma[v] * coeff
				delta[v] += c
				if edge != nil {
					edge[g.EID[a]] += c
				} else if logEdges {
					st.log = append(st.log, edgeDep{g.EID[a], c})
				}
			}
		}
	}
}

// fold adds the sweep's dependencies into the totals and restores the
// clean invariant sparsely: every vertex whose state was written is
// settled (each relaxed vertex carries a heap entry, and Dijkstra drains
// the heap), so the settle order covers them all.
func (st *dijkstraBrandes) fold(vertex, edge []float64) {
	st.log = foldLog(st.log, edge)
	for i, v := range st.order {
		if vertex != nil && i > 0 {
			vertex[v] += st.delta[v]
		}
		st.dist[v] = math.Inf(1)
		st.sigma[v] = 0
		st.delta[v] = 0
		st.done[v] = false
	}
}
