// Package centrality implements SNAP's centrality kernels: degree and
// closeness centrality, exact betweenness centrality (Brandes'
// algorithm over BFS sweeps) for vertices and edges, and the
// adaptive-sampling approximate betweenness of Bader, Kintali, Madduri
// & Mihail (WAW 2007) that powers the pBD community detection
// algorithm.
//
// Every betweenness kernel runs on one driver, Betweenness: the paper's
// coarse-grained form, whole traversals in parallel, one per source.
// Each source's dependencies are folded into the totals strictly in
// source order, so every vertex and edge receives the same additions in
// the same order as the serial loop, and the scores are bit-identical
// at every worker count.
package centrality

import (
	"math"
	"sync"
	"sync/atomic"

	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/par"
)

// Scores holds betweenness centrality results. Undirected scores follow
// the convention of counting each (s, t) pair once (s < t); i.e. raw
// accumulated dependencies are halved for undirected graphs.
type Scores struct {
	// Vertex betweenness, length n. Nil if not requested.
	Vertex []float64
	// Edge betweenness indexed by edge id, length m. Nil if not
	// requested.
	Edge []float64
	// Sources is the number of source traversals accumulated (n for
	// exact computation, the sample count for sampled runs).
	Sources int
}

// BetweennessOptions configures betweenness computation.
type BetweennessOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers(). The scores
	// do not depend on it.
	Workers int
	// Alive restricts traversal to edges with Alive[eid] == true.
	Alive []bool
	// ComputeVertex/ComputeEdge select which scores to accumulate.
	// Both default to true when both are false.
	ComputeVertex bool
	ComputeEdge   bool
	// Sources, when non-nil, restricts traversals to these source
	// vertices (sampled approximation). Scores are NOT rescaled; use
	// ScaleSampled to extrapolate.
	Sources []int32
}

// edgeDep is one logged edge dependency: c is added to edge id.
type edgeDep struct {
	id int32
	c  float64
}

// foldLog adds logged edge dependencies into edge in log order and
// empties the log.
func foldLog(log []edgeDep, edge []float64) []edgeDep {
	for _, d := range log {
		edge[d.id] += d.c
	}
	return log[:0]
}

// Betweenness computes exact (or source-sampled) betweenness
// centrality on an unweighted graph via Brandes' dependency
// accumulation: one BFS sweep per source on workers goroutines, folded
// into the totals in source order (see brandesRun).
func Betweenness(g *graph.Graph, opt BetweennessOptions) Scores {
	if !opt.ComputeVertex && !opt.ComputeEdge {
		opt.ComputeVertex = true
		opt.ComputeEdge = true
	}
	n := g.NumVertices()
	sources := opt.Sources
	if sources == nil {
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i)
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	r := &brandesRun{
		g: g, alive: opt.Alive, sources: sources,
		free:   make(chan *brandesState, 2*workers),
		parked: make([]*brandesState, 2*workers),
	}
	r.out.Sources = len(sources)
	if opt.ComputeVertex {
		r.out.Vertex = make([]float64, n)
	}
	if opt.ComputeEdge {
		r.out.Edge = make([]float64, g.NumEdges())
	}
	for range 2 * workers {
		r.free <- nil // acquired on first use
	}
	par.ForEachN(workers, workers, func(int) { r.work() })
	close(r.free)
	for st := range r.free {
		if st != nil {
			st.release()
		}
	}
	if !g.Directed() {
		halve(r.out.Vertex)
		halve(r.out.Edge)
	}
	return r.out
}

// brandesRun is one call's ordered fold. Workers claim source indices
// from a counter. The source whose turn it is when claimed adds its
// edge dependencies straight into the totals; any other logs them and
// parks its state when done. Whoever folds the source whose turn it is
// advances the turn and folds every parked successor. At most
// 2×workers states are in flight; a worker takes a state before it
// claims an index, so the source holding the turn always has one.
type brandesRun struct {
	g       *graph.Graph
	alive   []bool
	sources []int32
	out     Scores
	free    chan *brandesState // idle states; nil until first use
	parked  []*brandesState    // swept sources awaiting their turn, by index mod window
	next    atomic.Int64       // next source index to claim
	mu      sync.Mutex         // guards turn, parked and folding into out
	turn    int                // index of the next source to fold
}

func (r *brandesRun) work() {
	window := len(r.parked)
	for {
		st := <-r.free
		i := int(r.next.Add(1)) - 1
		if i >= len(r.sources) {
			r.free <- st
			return
		}
		if st == nil {
			st = acquireBrandesState(r.g.NumVertices())
		}
		r.mu.Lock()
		inTurn := i == r.turn
		r.mu.Unlock()
		if inTurn {
			// The turn cannot pass i before this worker folds it, so
			// nothing else writes the totals meanwhile.
			st.sweep(r.g, r.sources[i], r.alive, r.out.Edge, false)
		} else {
			st.sweep(r.g, r.sources[i], r.alive, nil, r.out.Edge != nil)
		}
		r.mu.Lock()
		if i != r.turn {
			// Claimed but unfolded indices are at most window
			// consecutive ones from turn on, so their slots differ.
			r.parked[i%window] = st
			r.mu.Unlock()
			continue
		}
		for st != nil {
			st.fold(r.out.Vertex, r.out.Edge)
			r.free <- st // never blocks: free has room for every state
			r.turn++
			st, r.parked[r.turn%window] = r.parked[r.turn%window], nil
		}
		r.mu.Unlock()
	}
}

func halve(xs []float64) {
	for i := range xs {
		xs[i] /= 2
	}
}

// brandesState is one pooled Brandes traversal state; sweep and fold
// alternate. The forward BFS phase lives in a shared frontier engine
// (epoch-stamped distances, O(1) reset); sigma/delta maintain a clean-between-runs invariant — every entry is
// 0 whenever no sweep is pending — so a sweep resets nothing up front
// and fold instead sparsely restores exactly the vertices it touched
// (the engine's visitation order): O(touched) per source instead of
// wholesale O(n) re-zeroing.
type brandesState struct {
	eng   *frontier.Engine
	sigma []float64
	delta []float64
	log   []edgeDep // a logged sweep's edge dependencies (emptied by fold)
}

// brandesPool amortizes Brandes scratch across calls: the batched
// sampling loop of ApproxBetweenness and pBD's per-component refreshes
// re-acquire states every call and get the previous call's allocations
// back.
var brandesPool = par.NewPool(func() *brandesState { return &brandesState{} })

// acquireBrandesState returns a pooled state sized for n vertices,
// satisfying the clean invariant.
func acquireBrandesState(n int) *brandesState {
	st := brandesPool.Get()
	if st.eng == nil {
		st.eng = frontier.NewEngine(n)
	} else {
		st.eng.Resize(n)
	}
	if cap(st.sigma) < n || cap(st.delta) < n {
		st.sigma = make([]float64, n)
		st.delta = make([]float64, n)
	} else {
		// Shrinks and in-cap grows keep the clean invariant: every
		// entry ever touched by a sweep was restored by its fold, and
		// never-touched capacity is zero from allocation.
		st.sigma = st.sigma[:n]
		st.delta = st.delta[:n]
	}
	return st
}

func (st *brandesState) release() { brandesPool.Put(st) }

// sweep performs one source traversal and leaves its dependencies in
// the state. Edge dependencies go straight into edge when it is
// non-nil, and are logged in sweep order for fold when logEdges is
// set. The forward BFS phase is the shared frontier engine's serial
// run; path counts are then accumulated by one push sweep over the
// visitation order. Distances
// are read through the engine's raw array, which is safe here: every
// alive-arc neighbor of a reached vertex is itself reached, so no
// stale-epoch entry is ever consulted.
func (st *brandesState) sweep(g *graph.Graph, s int32, alive []bool, edge []float64, logEdges bool) {
	eng, sigma, delta := st.eng, st.sigma, st.delta
	eng.Run(g, s, alive, -1)
	order := eng.Order()
	dist := eng.DistData()
	sigma[s] = 1
	for _, v := range order {
		sv := sigma[v]
		dv := dist[v]
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			u := g.Adj[a]
			if dist[u] == dv+1 {
				sigma[u] += sv
			}
		}
	}
	// Dependency accumulation in reverse BFS order. Predecessors of w
	// are found by rescanning w's adjacency (SNAP's space optimization
	// for small-world graphs instead of storing predecessor lists).
	for i := len(order) - 1; i > 0; i-- {
		w := order[i]
		coeff := (1 + delta[w]) / sigma[w]
		lo, hi := g.Offsets[w], g.Offsets[w+1]
		for a := lo; a < hi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			v := g.Adj[a]
			if dist[v] == dist[w]-1 {
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
// clean invariant sparsely: only vertices in the visitation order carry
// sigma/delta state (the engine's distances reset themselves by epoch).
func (st *brandesState) fold(vertex, edge []float64) {
	st.log = foldLog(st.log, edge)
	for i, v := range st.eng.Order() {
		if vertex != nil && i > 0 {
			vertex[v] += st.delta[v]
		}
		st.sigma[v] = 0
		st.delta[v] = 0
	}
}

// ScaleSampled extrapolates sampled betweenness scores to the exact
// scale: each accumulated dependency is multiplied by n/samples.
func ScaleSampled(scores []float64, n, samples int) {
	if samples == 0 {
		return
	}
	f := float64(n) / float64(samples)
	for i := range scores {
		scores[i] *= f
	}
}

// MaxEdge returns the edge id with the largest score among alive edges
// (alive == nil means all), breaking ties toward the smaller id.
// Returns -1 when no edge is alive.
func MaxEdge(scores []float64, alive []bool) int32 {
	best := int32(-1)
	bv := math.Inf(-1)
	for id, s := range scores {
		if alive != nil && !alive[id] {
			continue
		}
		if s > bv {
			best, bv = int32(id), s
		}
	}
	return best
}
