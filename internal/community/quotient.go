package community

import (
	"snap/internal/graph"
	"snap/internal/par"
)

// Quotient contracts a clustering into its community graph: one vertex
// per community, edge weights equal to the number of original edges
// between the communities, and self-weights (intra-edge counts)
// reported separately (the CSR form drops self-loops). The quotient is
// the substrate of hierarchical community analysis and of the Louvain
// comparison baseline.
type Quotient struct {
	// Graph is the weighted community graph (no self-loops).
	Graph *graph.Graph
	// Intra[c] is the number of original edges inside community c.
	Intra []int64
	// Size[c] is the number of original vertices in community c.
	Size []int64
	// DegSum[c] is the total original degree of community c.
	DegSum []int64
}

// MakeQuotient builds the quotient of g under assign with dense
// community ids in [0, count). The O(n) vertex scan and O(m) edge walk
// both run across par.Workers() goroutines with per-worker histograms
// and edge buffers, merged in worker order so the result is identical
// to a serial scan.
func MakeQuotient(g *graph.Graph, assign []int32, count int) Quotient {
	workers := par.Workers()
	q := Quotient{
		Intra:  make([]int64, count),
		Size:   make([]int64, count),
		DegSum: make([]int64, count),
	}
	n := g.NumVertices()
	sizeW := make([][]int64, workers)
	degW := make([][]int64, workers)
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		ls := make([]int64, count)
		ld := make([]int64, count)
		for v := lo; v < hi; v++ {
			c := assign[v]
			ls[c]++
			ld[c] += g.Offsets[v+1] - g.Offsets[v]
		}
		sizeW[w] = ls
		degW[w] = ld
	})
	reduceHistograms(q.Size, sizeW)
	reduceHistograms(q.DegSum, degW)
	all := g.EdgeEndpoints()
	intraW := make([][]int64, workers)
	edgesW := make([][]graph.Edge, workers)
	par.ForChunkedN(len(all), workers, func(w, lo, hi int) {
		li := make([]int64, count)
		le := make([]graph.Edge, 0, hi-lo)
		for _, e := range all[lo:hi] {
			ca, cb := assign[e.U], assign[e.V]
			if ca == cb {
				li[ca]++
				continue
			}
			le = append(le, graph.Edge{U: ca, V: cb, W: 1})
		}
		intraW[w] = li
		edgesW[w] = le
	})
	reduceHistograms(q.Intra, intraW)
	// The assembly kernel's summing dedup aggregates the inter-community
	// observations: duplicates of a community pair sum their weights in
	// input order, so the result does not depend on the worker count.
	qg, err := graph.Build(count, concatEdges(edgesW), graph.BuildOptions{Weighted: true, SumWeights: true})
	if err != nil {
		panic("community: quotient: " + err.Error())
	}
	q.Graph = qg
	return q
}

// reduceHistograms folds per-worker histograms into dst (nil entries
// come from workers the loop clamp never started).
func reduceHistograms(dst []int64, parts [][]int64) {
	for _, p := range parts {
		for i, v := range p {
			dst[i] += v
		}
	}
}

// concatEdges joins per-worker edge buffers in worker order.
func concatEdges(parts [][]graph.Edge) []graph.Edge {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]graph.Edge, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// LouvainOptions configures the multilevel local-moving heuristic.
type LouvainOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers(). For a
	// fixed Seed the partition is identical for EVERY worker count —
	// see the batch-synchronous engine in move.go.
	Workers int
	// MaxLevels caps the contraction hierarchy depth. 0 => 16.
	MaxLevels int
	// Seed drives the deterministic vertex-order pseudo-shuffle.
	Seed int64
}

// Louvain is the multilevel local-moving heuristic (Blondel et al.
// 2008) — published the same year as the paper and since become the
// standard fast modularity baseline; it is included for comparison
// with pBD/pMA/pLA. Each level runs batch-synchronous local moving to
// convergence, then contracts communities and recurses. The whole
// hierarchy runs inside a MoveWorkspace of the call's own, dropped on
// return (the result keeps only its Assign array), so no level CSR
// outlives the call; callers that cluster many graphs hold a
// workspace and call its Louvain method.
func Louvain(g *graph.Graph, opt LouvainOptions) Clustering {
	return new(MoveWorkspace).Louvain(g, opt)
}
