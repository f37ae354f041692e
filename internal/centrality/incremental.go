package centrality

import (
	"math"

	"snap/internal/graph"
	"snap/internal/par"
)

// Warm-started PageRank across snapshot epochs (internal/ingest,
// internal/serve). The stationary distribution of an updated graph is
// usually close to the previous epoch's, so instead of restarting power
// iteration from the uniform vector PageRankFrom polishes the
// carried-over scores with Gauss–Seidel sweeps, which certify the usual
// L1 tolerance. Iteration count depends on the distance between the
// start vector and the fixpoint, not on where a cold start would begin.
// A Gauss–Southwell residual push around the changed vertices used to
// run ahead of the polish; measured, it never beat the plain warm start
// by 10 % at any delta size on either graph family and lost by up to
// 1.5× (DESIGN.md §5h), so the polish is the one warm kernel.

// PageRankFrom computes PageRank warm-started from a previous score
// vector, which is read, never written: the result is a fresh slice.
// prev is only a starting point — scores converge to the same fixpoint
// as PageRank(g, opt) and satisfy the same L1 tolerance, so they agree
// with the cold result to within the solver tolerance but not bit for
// bit. Falls back to the cold PageRank when prev is unusable (nil,
// wrong length, non-positive or non-finite total) and on directed
// graphs, whose in-rows the polish does not sweep. The sweep is serial
// in vertex order, so the result is deterministic for any worker count.
func PageRankFrom(g *graph.Graph, prev []float64, opt PageRankOptions) []float64 {
	opt.fill()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := normalizedCopy(prev, n)
	if rank == nil || g.Directed() {
		return PageRank(g, opt)
	}
	ws := seidelPool.Get()
	defer seidelPool.Put(ws)
	return ws.polish(g, rank, opt)
}

// seidelWorkspace is the pooled scratch of the warm kernel: the
// per-vertex out-shares and the sweep-start copy Aitken extrapolation
// reads. Both are fully rewritten each sweep, so reuse needs no reset.
type seidelWorkspace struct {
	share, prev []float64
}

var seidelPool = par.NewPool(func() *seidelWorkspace { return &seidelWorkspace{} })

// polish runs in-place Gauss–Seidel sweeps on rank: each vertex
// recomputes its score from the newest neighbor values within the
// sweep, which roughly halves the iteration count of the Jacobi power
// method for the same L1 successive-sweep tolerance. Dangling mass is
// lagged from the sweep start (the standard treatment); a final
// renormalization removes the O(tol) sum drift Gauss–Seidel incurs
// mid-sweep. The cold path keeps the Jacobi iteration so from-scratch
// results stay bit-identical across releases.
func (ws *seidelWorkspace) polish(g *graph.Graph, rank []float64, opt PageRankOptions) []float64 {
	n := g.NumVertices()
	if cap(ws.share) < n {
		ws.share = make([]float64, n)
		ws.prev = make([]float64, n)
	}
	share, prev := ws.share[:n], ws.prev[:n]
	lastDelta, lastRho := 0.0, 0.0
	sinceExtrap := 0
	for it := 0; it < opt.MaxIterations; it++ {
		copy(prev, rank)
		base := outShares(g, rank, share)
		var delta float64
		for vi := 0; vi < n; vi++ {
			lo, hi := g.Offsets[vi], g.Offsets[vi+1]
			nv := base
			if lo < hi {
				var s float64
				for a := lo; a < hi; a++ {
					s += share[g.Adj[a]]
				}
				nv += damping * s
				share[vi] = nv / float64(hi-lo)
			}
			delta += math.Abs(nv - rank[vi])
			rank[vi] = nv
		}
		if delta < opt.Tolerance {
			break
		}
		// Aitken extrapolation: once the per-sweep contraction ratio
		// ρ = Δ_k/Δ_{k-1} has stabilized, the error is dominated by a
		// single geometric mode, and x* ≈ x_k + (x_k − x_{k-1})·ρ/(1−ρ)
		// jumps it in one step. Gauss–Seidel remains contractive after
		// the jump, so a bad extrapolation only costs extra sweeps.
		sinceExtrap++
		if lastDelta > 0 {
			rho := delta / lastDelta
			if lastRho > 0 && sinceExtrap >= 3 &&
				rho > 0.5 && rho < 0.97 && math.Abs(rho-lastRho) < 0.02*rho {
				scale := rho / (1 - rho)
				for i := range rank {
					rank[i] += (rank[i] - prev[i]) * scale
				}
				sinceExtrap = 0
				lastDelta, lastRho = 0, 0
				continue
			}
			lastRho = rho
		}
		lastDelta = delta
	}
	var sum float64
	for _, v := range rank {
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range rank {
			rank[i] *= inv
		}
	}
	return rank
}

// normalizedCopy returns a fresh copy of prev scaled to sum 1, or nil
// when prev is the wrong length or has a non-positive / non-finite
// total — the signal to fall back to a cold start.
func normalizedCopy(prev []float64, n int) []float64 {
	if len(prev) != n {
		return nil
	}
	var sum float64
	for _, v := range prev {
		sum += v
	}
	if !(sum > 0) || math.IsInf(sum, 1) || math.IsNaN(sum) {
		return nil
	}
	out := make([]float64, n)
	inv := 1 / sum
	for i, v := range prev {
		out[i] = v * inv
	}
	return out
}
