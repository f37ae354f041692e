// Package centrality implements SNAP's centrality kernels: degree and
// closeness centrality, exact betweenness centrality (Brandes'
// algorithm) for vertices and edges in both coarse-grained (parallel
// over sources, O(p(m+n)) memory) and fine-grained (parallel within a
// traversal, O(m+n) memory) forms, and the adaptive-sampling
// approximate betweenness of Bader, Kintali, Madduri & Mihail (WAW
// 2007) that powers the pBD community detection algorithm.
package centrality

import (
	"math"
	"sync/atomic"
	"unsafe"

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
	// Workers bounds parallelism; <= 0 means par.Workers().
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
	// FineGrained parallelizes within each traversal (O(m+n) memory)
	// instead of across traversals (O(p(m+n)) memory).
	FineGrained bool
}

// Betweenness computes exact (or source-sampled) betweenness
// centrality on an unweighted graph via Brandes' dependency
// accumulation.
func Betweenness(g *graph.Graph, opt BetweennessOptions) Scores {
	if !opt.ComputeVertex && !opt.ComputeEdge {
		opt.ComputeVertex = true
		opt.ComputeEdge = true
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	sources := opt.Sources
	if sources == nil {
		n := g.NumVertices()
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i)
		}
	}
	if opt.FineGrained {
		return betweennessFine(g, opt, sources, workers)
	}
	return betweennessCoarse(g, opt, sources, workers)
}

// betweennessCoarse distributes whole traversals across workers, each
// with private accumulators — the paper's coarse-grained strategy with
// O(p(m+n)) space.
func betweennessCoarse(g *graph.Graph, opt BetweennessOptions, sources []int32, workers int) Scores {
	n := g.NumVertices()
	m := g.NumEdges()
	type acc struct {
		vertex []float64
		edge   []float64
	}
	accs := make([]acc, workers)
	par.ForChunkedN(len(sources), workers, func(w, lo, hi int) {
		st := acquireBrandesState(n)
		a := acc{}
		if opt.ComputeVertex {
			a.vertex = make([]float64, n)
		}
		if opt.ComputeEdge {
			a.edge = make([]float64, m)
		}
		for i := lo; i < hi; i++ {
			st.run(g, sources[i], opt.Alive, a.vertex, a.edge)
		}
		releaseBrandesState(st)
		accs[w] = a
	})
	out := Scores{Sources: len(sources)}
	if opt.ComputeVertex {
		out.Vertex = make([]float64, n)
	}
	if opt.ComputeEdge {
		out.Edge = make([]float64, m)
	}
	for _, a := range accs {
		for i, v := range a.vertex {
			out.Vertex[i] += v
		}
		for i, v := range a.edge {
			out.Edge[i] += v
		}
	}
	if !g.Directed() {
		halve(out.Vertex)
		halve(out.Edge)
	}
	return out
}

func halve(xs []float64) {
	for i := range xs {
		xs[i] /= 2
	}
}

// brandesState is the per-worker scratch of one Brandes traversal. The
// forward BFS phase lives in a shared frontier engine (epoch-stamped
// distances, O(1) reset); sigma/delta maintain a clean-between-runs
// invariant — every entry is 0 whenever no run is in progress — so a
// run resets nothing up front and instead sparsely restores exactly the
// vertices it touched (the engine's visitation order) before
// returning: O(touched) per source instead of wholesale O(n)
// re-zeroing.
type brandesState struct {
	eng   *frontier.Engine
	sigma []float64
	delta []float64
}

// brandesPool amortizes Brandes scratch across calls: the batched
// sampling loop of ApproxBetweenness re-acquires states every batch
// and gets the previous batch's allocations back.
var brandesPool = par.NewPool(func() *brandesState { return &brandesState{} })

// acquireBrandesState returns a pooled state sized for n vertices,
// satisfying the clean invariant. Release with releaseBrandesState.
func acquireBrandesState(n int) *brandesState {
	st := brandesPool.Get()
	st.resize(n)
	return st
}

func releaseBrandesState(st *brandesState) { brandesPool.Put(st) }

func (st *brandesState) resize(n int) {
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
		// entry ever touched by a run was restored on that run's exit,
		// and never-touched capacity is zero from allocation.
		st.sigma = st.sigma[:n]
		st.delta = st.delta[:n]
	}
}

// run performs one source traversal and accumulates dependencies into
// vertexAcc and/or edgeAcc (either may be nil). The forward BFS phase
// is the shared frontier engine's serial run; path counts are then
// accumulated by one push sweep over the visitation order. Distances
// are read through the engine's raw array, which is safe here: every
// alive-arc neighbor of a reached vertex is itself reached, so no
// stale-epoch entry is ever consulted.
func (st *brandesState) run(g *graph.Graph, s int32, alive []bool, vertexAcc, edgeAcc []float64) {
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
				if edgeAcc != nil {
					edgeAcc[g.EID[a]] += c
				}
			}
		}
		if vertexAcc != nil {
			vertexAcc[w] += delta[w]
		}
	}
	// Restore the clean invariant sparsely: only vertices in the
	// visitation order carry sigma/delta state (the engine's distances
	// reset themselves by epoch).
	for _, v := range order {
		sigma[v] = 0
		delta[v] = 0
	}
}

// betweennessFine runs traversals one at a time but parallelizes the
// level-synchronous forward and backward sweeps — the O(m+n)-memory
// strategy for graphs too large for per-worker accumulators.
func betweennessFine(g *graph.Graph, opt BetweennessOptions, sources []int32, workers int) Scores {
	n := g.NumVertices()
	m := g.NumEdges()
	out := Scores{Sources: len(sources)}
	if opt.ComputeVertex {
		out.Vertex = make([]float64, n)
	}
	if opt.ComputeEdge {
		out.Edge = make([]float64, m)
	}
	// sigma/delta follow the same clean-between-sources invariant as
	// brandesState: initialized densely once, then restored sparsely
	// after each source over exactly the visited vertices. The forward
	// BFS — frontier bookkeeping, CAS claiming, and per-level windows —
	// is entirely the shared engine's parallel top-down run; reading
	// its raw distance array is safe because every alive-arc neighbor
	// of a reached vertex is itself reached (no stale-epoch entry is
	// consulted).
	sigma := make([]float64, n)
	delta := make([]float64, n)
	eng := frontier.AcquireEngine(n)
	defer frontier.ReleaseEngine(eng)
	fopt := frontier.Options{Workers: workers, Alive: opt.Alive, MaxDepth: -1}

	for _, s := range sources {
		eng.RunOptions(g, s, fopt)
		dist := eng.DistData()
		sigma[s] = 1
		// Sigma accumulation level by level: each vertex pulls from its
		// predecessors, so no atomics are needed — u is owned by
		// exactly one worker, and the previous level is settled.
		for d := int32(1); d < int32(eng.NumLevels()); d++ {
			level := eng.Level(d)
			par.ForChunkedN(len(level), workers, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					u := level[i]
					var acc float64
					alo, ahi := g.Offsets[u], g.Offsets[u+1]
					for a := alo; a < ahi; a++ {
						if opt.Alive != nil && !opt.Alive[g.EID[a]] {
							continue
						}
						v := g.Adj[a]
						if dist[v] == d-1 {
							acc += sigma[v]
						}
					}
					sigma[u] = acc
				}
			})
		}
		// Backward sweep, one level at a time; delta of deeper levels
		// is final when a level is processed, and within a level each
		// w is owned by one worker. Accumulation into predecessors'
		// delta and into edge scores uses atomic float adds.
		for li := int32(eng.NumLevels()) - 1; li > 0; li-- {
			level := eng.Level(li)
			par.ForChunkedN(len(level), workers, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					w := level[i]
					coeff := (1 + delta[w]) / sigma[w]
					alo, ahi := g.Offsets[w], g.Offsets[w+1]
					for a := alo; a < ahi; a++ {
						if opt.Alive != nil && !opt.Alive[g.EID[a]] {
							continue
						}
						v := g.Adj[a]
						if dist[v] == dist[w]-1 {
							c := sigma[v] * coeff
							atomicAddFloat64(&delta[v], c)
							if out.Edge != nil {
								atomicAddFloat64(&out.Edge[g.EID[a]], c)
							}
						}
					}
					if out.Vertex != nil {
						out.Vertex[w] += delta[w]
					}
				}
			})
		}
		// Restore the clean invariant sparsely: the engine's order
		// holds exactly the vertices this source's traversal touched.
		for _, v := range eng.Order() {
			sigma[v] = 0
			delta[v] = 0
		}
	}
	if !g.Directed() {
		halve(out.Vertex)
		halve(out.Edge)
	}
	return out
}

// atomicAddFloat64 adds delta to *addr with a CAS loop over the bit
// pattern. The stdlib has no atomic float64 add.
func atomicAddFloat64(addr *float64, delta float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, nw) {
			return
		}
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
