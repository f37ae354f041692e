package sketch

import (
	"math"

	"snap/internal/bfs"
	"snap/internal/graph"
	"snap/internal/par"
)

// ClosenessOptions configures the Eppstein–Wang sampled closeness
// estimator.
type ClosenessOptions struct {
	// Samples is the number of BFS pivots. <= 0 derives the count
	// from the Hoeffding bound below: every vertex's estimated average
	// distance within 0.1·Δ, the graph's diameter (Eppstein–Wang's
	// error unit), with probability 0.95 for all n vertices at once.
	Samples int
	// Seed drives pivot sampling; 0 means the documented deterministic
	// default (DefaultSeed).
	Seed int64
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
}

// ClosenessResult carries the scores and the realized error contract.
type ClosenessResult struct {
	// Scores[v] = 1 / (estimated total distance from v), the same
	// convention as the exact centrality.Closeness; vertices reached
	// by no pivot score 0.
	Scores []float64
	// Pivots are the sampled BFS sources actually used.
	Pivots []int32
	// Epsilon is the error guaranteed at the requested confidence by
	// the number of samples actually run: with k pivots, every
	// vertex's estimated average distance is within Epsilon·Δ of the
	// truth with probability Confidence.
	Epsilon float64
	// Confidence is the confidence level the bound was solved at, 0.95.
	Confidence float64
}

// ClosenessSamples returns the Eppstein–Wang pivot count that makes
// every vertex's estimated average distance accurate to eps·Δ with the
// given confidence: the Hoeffding bound for means of [0, Δ]-valued
// samples, union-bounded over the n vertices —
//
//	k = ceil( ln(2n / (1−confidence)) / (2 eps²) ).
func ClosenessSamples(n int, eps, confidence float64) int {
	if n <= 0 {
		return 0
	}
	if !(eps > 0) {
		eps = 0.1
	}
	if !(confidence > 0 && confidence < 1) {
		confidence = 0.95
	}
	k := int(math.Ceil(math.Log(2*float64(n)/(1-confidence)) / (2 * eps * eps)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// closenessEpsilon inverts the bound: the eps achieved by k samples.
func closenessEpsilon(n, k int, confidence float64) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	if !(confidence > 0 && confidence < 1) {
		confidence = 0.95
	}
	return math.Sqrt(math.Log(2*float64(n)/(1-confidence)) / (2 * float64(k)))
}

// Closeness estimates closeness centrality for every vertex with the
// Eppstein–Wang pivot scheme: k BFS traversals from sampled pivots
// give each vertex an unbiased estimate of its total distance, and the
// score is the reciprocal of that estimate. Each pivot's distance
// vector is folded into per-worker accumulators with no serialization
// (the coarse-grained O(p·n) memory trade, as in coarse-grained
// betweenness), merged once at the end. Which pivot lands on which
// worker is scheduling-dependent, but every accumulated value is an
// integer-valued float64 far below 2^53, where addition is exact and
// therefore associative — so the merged totals, and the scores, are
// bit-identical for a fixed seed at any worker count (pinned by the
// worker-invariance test). On disconnected graphs a
// vertex's sampled total is scaled by n over the number of pivots that
// reached it, the convention the exact kernel's reachable-pairs
// handling mirrors.
func Closeness(g *graph.Graph, opt ClosenessOptions) ClosenessResult {
	n := g.NumVertices()
	if n == 0 {
		return ClosenessResult{}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	const confidence = 0.95
	samples := opt.Samples
	if samples <= 0 {
		samples = ClosenessSamples(n, 0.1, confidence)
	}
	if samples > n {
		samples = n
	}
	pivots := SampleVertices(n, samples, opt.Seed)

	// Per-worker accumulators, allocated lazily so only workers that
	// actually run pay O(n); merged in fixed worker order.
	type pivotAcc struct {
		totals []float64
		counts []int32
	}
	accs := make([]pivotAcc, workers)
	bfs.MultiSourceWorkspace(g, pivots, -1, workers, func(w, _ int, ws *bfs.Workspace) {
		a := &accs[w]
		if a.totals == nil {
			a.totals = make([]float64, n)
			a.counts = make([]int32, n)
		}
		for _, v := range ws.Order() {
			a.totals[v] += float64(ws.Dist(v))
			a.counts[v]++
		}
	})
	totals := make([]float64, n)
	counts := make([]int32, n)
	for _, a := range accs {
		if a.totals == nil {
			continue
		}
		for v := 0; v < n; v++ {
			totals[v] += a.totals[v]
			counts[v] += a.counts[v]
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		if counts[v] == 0 || totals[v] == 0 {
			continue
		}
		// Scale the sampled distance sum to the full vertex set.
		est := totals[v] * float64(n) / float64(counts[v])
		out[v] = 1 / est
	}
	return ClosenessResult{
		Scores:     out,
		Pivots:     pivots,
		Epsilon:    closenessEpsilon(n, samples, confidence),
		Confidence: confidence,
	}
}
