package metrics

import (
	"snap/internal/bfs"
	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/sketch"
)

// DiameterOptions configures DiameterWithOptions.
type DiameterOptions struct {
	// Approx routes to the HyperANF sketch tier, returning the
	// interpolated 90% effective diameter instead of the exact
	// iFUB diameter. On large small-world graphs the sketch needs one
	// union sweep per distance level while iFUB may re-run many full
	// traversals — see EXPERIMENTS.md for measured ratios.
	Approx bool
	// Registers is the per-vertex HLL register count under Approx
	// (0 means 64).
	Registers int
	// Seed drives the sketch hash; 0 means the documented default.
	Seed int64
	// Workers bounds parallelism of the sketch sweeps; the exact path
	// is serial by design (its per-level work is too fine-grained to
	// win from goroutine barriers).
	Workers int
}

// DiameterWithOptions computes the graph diameter, exactly (iFUB, the
// default) or approximately (HyperANF's 90% effective diameter). The
// exact tier returns an integer-valued float64; the approximate tier
// interpolates between sweep levels.
func DiameterWithOptions(g *graph.Graph, opt DiameterOptions) float64 {
	if !opt.Approx {
		return float64(Diameter(g))
	}
	r := sketch.ANF(g, sketch.ANFOptions{
		Registers: opt.Registers,
		Seed:      opt.Seed,
		Workers:   opt.Workers,
	})
	return r.EffectiveDiameter
}

// Diameter computes the exact diameter of the largest connected
// component using the iFUB scheme (iterative fringe upper bound):
// a double-sweep lower bound from a BFS-deep vertex, then BFS from
// the deepest fringe layers of a central root until the upper bound
// meets the best eccentricity found. On small-world graphs this
// terminates after a handful of traversals instead of n.
//
// All traversals share one epoch-stamped frontier engine in serial
// direction-optimizing mode (bottom-up sweeps through the dense middle
// levels of small-world graphs, plain top-down elsewhere), so the
// whole computation performs O(1) heap allocation regardless of how
// many fringe vertices iFUB has to scan, and each eccentricity probe
// reads MaxDist in O(1) from the traversal order instead of scanning
// an O(n) distance vector.
func Diameter(g *graph.Graph) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	// Start anywhere in the largest component: pick the max-degree
	// vertex (guaranteed non-isolated when edges exist).
	start := int32(0)
	for v := int32(1); int(v) < n; v++ {
		if g.Degree(v) > g.Degree(start) {
			start = v
		}
	}
	if g.Degree(start) == 0 {
		return 0
	}
	ws := bfs.AcquireWorkspace(n)
	defer bfs.ReleaseWorkspace(ws)
	// iFUB only consumes distances and any shortest-path tree, so each
	// sweep may switch directions freely; one worker keeps the
	// per-level barrier free of goroutine overhead.
	opt := frontier.Options{Workers: 1, MaxDepth: -1, Alpha: frontier.DefaultAlpha}
	// Double sweep: farthest from start, then farthest from there.
	ws.RunOptions(g, start, opt)
	a := farthest(ws)
	ws.RunOptions(g, a, opt)
	b := farthest(ws)
	lower := int(ws.Dist(b))
	// Root the iFUB search at the midpoint of the a-b path (walked now,
	// before the workspace is reused for the next traversal).
	mid := b
	for hop := 0; hop < lower/2; hop++ {
		mid = ws.Parent(mid)
	}
	ws.RunOptions(g, mid, opt)
	ecc := ws.NumLevels() - 1
	// Layers of the mid-rooted BFS tree: the engine maintains
	// per-level windows of its visitation order, copied out (two
	// allocations) before the workspace is reused below.
	order := append([]int32(nil), ws.Order()...)
	bounds := make([]int, ws.NumLevels()+1)
	for d := 0; d < ws.NumLevels(); d++ {
		bounds[d+1] = bounds[d] + len(ws.Level(int32(d)))
	}
	best := lower
	upper := 2 * ecc
	for depth := ecc; depth > 0 && upper > best; depth-- {
		for _, v := range order[bounds[depth]:bounds[depth+1]] {
			ws.RunOptions(g, v, opt)
			if e := int(ws.MaxDist()); e > best {
				best = e
			}
		}
		// Any vertex at depth <= d has eccentricity <= 2d; once the
		// remaining depth cannot beat best, stop.
		upper = 2 * (depth - 1)
	}
	return best
}

// farthest returns the reached vertex with the largest distance in the
// workspace's latest traversal, breaking ties toward the smaller
// vertex id (matching the historical dense-scan selection; the scan
// order of the traversal does not affect the winner).
func farthest(ws *bfs.Workspace) int32 {
	best := int32(0)
	bd := int32(-1)
	for _, v := range ws.Order() {
		if d := ws.Dist(v); d > bd || (d == bd && v < best) {
			bd, best = d, v
		}
	}
	return best
}
