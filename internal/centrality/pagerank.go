package centrality

import (
	"math"

	"snap/internal/graph"
	"snap/internal/par"
)

// PageRankOptions configures the PageRank power iteration.
type PageRankOptions struct {
	// Tolerance is the L1 convergence threshold (default 1e-8).
	Tolerance float64
	// MaxIterations bounds the iteration count (default 200).
	MaxIterations int
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
}

// damping is the random surfer's continuation probability. It is
// typed so that 1−damping rounds from float64(0.85), as the goldens
// were recorded, not from the exact decimal.
const damping float64 = 0.85

func (o *PageRankOptions) fill() {
	if !(o.Tolerance > 0) {
		o.Tolerance = 1e-8
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.Workers <= 0 {
		o.Workers = par.Workers()
	}
}

// PageRank computes the stationary random-surfer distribution with
// parallel power iteration (the classic index for "identification of
// influential entities" the paper's introduction motivates). On
// directed graphs mass flows along arc direction; on undirected graphs
// each edge is followed both ways. Dangling vertices (out-degree 0)
// redistribute uniformly. Scores sum to 1.
//
// This is the cold Jacobi loop; warm starts go through PageRankFrom's
// Gauss–Seidel polish instead. Each vertex pulls the shares of its
// in-neighbors, the rows of graph.Reverse(g) (g itself when
// undirected), in ascending source order. Deterministic at any worker
// count (each vertex's sum is accumulated serially in arc order).
func PageRank(g *graph.Graph, opt PageRankOptions) []float64 {
	opt.fill()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	pull := graph.Reverse(g)
	next := make([]float64, n)
	// share[v] = rank[v]/outdeg(v), computed per iteration.
	share := make([]float64, n)
	for it := 0; it < opt.MaxIterations; it++ {
		base := outShares(g, rank, share)
		par.ForChunkedN(n, opt.Workers, func(_, lo, hi int) {
			for vi := lo; vi < hi; vi++ {
				var s float64
				alo, ahi := pull.Offsets[vi], pull.Offsets[vi+1]
				for a := alo; a < ahi; a++ {
					s += share[pull.Adj[a]]
				}
				next[vi] = base + damping*s
			}
		})
		var delta float64
		for v := 0; v < n; v++ {
			delta += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		if delta < opt.Tolerance {
			break
		}
	}
	return rank
}

// outShares is the preamble both PageRank sweeps (the cold Jacobi loop
// and PageRankFrom's Gauss–Seidel polish) run at the start of each
// iteration: it sets share[v] = rank[v]/outdeg(v), 0 for a dangling v,
// and returns the term every vertex's new score starts from,
// ((1−d) + d·dangling mass)/n.
func outShares(g *graph.Graph, rank, share []float64) float64 {
	n := len(rank)
	var dangling float64
	for v := 0; v < n; v++ {
		if deg := g.Offsets[v+1] - g.Offsets[v]; deg == 0 {
			dangling += rank[v]
			share[v] = 0
		} else {
			share[v] = rank[v] / float64(deg)
		}
	}
	return ((1 - damping) + damping*dangling) / float64(n)
}

// EigenvectorCentrality computes the principal-eigenvector centrality
// of an undirected graph by power iteration (normalized to max 1).
// Returns nil when the iteration cannot make progress (empty graph).
func EigenvectorCentrality(g *graph.Graph, maxIter int, tol float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	if !(tol > 0) {
		tol = 1e-9
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for it := 0; it < maxIter; it++ {
		for v := 0; v < n; v++ {
			var s float64
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			for a := lo; a < hi; a++ {
				s += x[g.Adj[a]]
			}
			y[v] = s
		}
		mx := 0.0
		for _, v := range y {
			if v > mx {
				mx = v
			}
		}
		if mx == 0 {
			return x // edgeless graph: uniform
		}
		var delta float64
		for i := range y {
			y[i] /= mx
			delta += math.Abs(y[i] - x[i])
		}
		x, y = y, x
		if delta < tol {
			break
		}
	}
	return x
}
