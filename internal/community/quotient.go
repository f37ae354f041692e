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
	q.Graph = aggregateQuotient(count, concatEdges(edgesW), "quotient")
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

// aggregateQuotient collapses raw inter-community edge observations
// into the weighted community graph. The parallel assembly kernel's
// summing dedup does the aggregation: duplicates of a community pair
// sum their weights in input order, so the result is identical to the
// former map-then-sort path while skipping both the map and the global
// edge sort.
func aggregateQuotient(count int, edges []graph.Edge, what string) *graph.Graph {
	qg, err := graph.Build(count, edges, graph.BuildOptions{Weighted: true, SumWeights: true})
	if err != nil {
		panic("community: " + what + ": " + err.Error())
	}
	return qg
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
// hierarchy runs inside a pooled MoveWorkspace; callers that sweep
// many graphs can hold a workspace and call its Louvain method
// directly to skip even the per-call result copy.
func Louvain(g *graph.Graph, opt LouvainOptions) Clustering {
	ws := AcquireMoveWorkspace()
	c := ws.Louvain(g, opt)
	c.Assign = append([]int32(nil), c.Assign...)
	ReleaseMoveWorkspace(ws)
	return c
}

// contractQuotient merges the communities of a quotient into a coarser
// quotient: sizes, degree sums, and intra weights aggregate, and the
// surviving inter-community weights collapse. Like MakeQuotient, the
// vertex fold and edge walk run with per-worker histograms. (The
// engine's Louvain contracts inside its workspace; this entry point
// serves quotient-level analyses and the in-tree map baseline.)
func contractQuotient(level Quotient, qa []int32, qc int) Quotient {
	workers := par.Workers()
	out := Quotient{
		Intra:  make([]int64, qc),
		Size:   make([]int64, qc),
		DegSum: make([]int64, qc),
	}
	nv := len(qa)
	sizeW := make([][]int64, workers)
	degW := make([][]int64, workers)
	intraVW := make([][]int64, workers)
	par.ForChunkedN(nv, workers, func(w, lo, hi int) {
		ls := make([]int64, qc)
		ld := make([]int64, qc)
		li := make([]int64, qc)
		for v := lo; v < hi; v++ {
			c := qa[v]
			ls[c] += level.Size[v]
			ld[c] += level.DegSum[v]
			li[c] += level.Intra[v]
		}
		sizeW[w] = ls
		degW[w] = ld
		intraVW[w] = li
	})
	reduceHistograms(out.Size, sizeW)
	reduceHistograms(out.DegSum, degW)
	reduceHistograms(out.Intra, intraVW)
	all := level.Graph.EdgeEndpoints()
	intraEW := make([][]int64, workers)
	edgesW := make([][]graph.Edge, workers)
	par.ForChunkedN(len(all), workers, func(w, lo, hi int) {
		li := make([]int64, qc)
		le := make([]graph.Edge, 0, hi-lo)
		for _, e := range all[lo:hi] {
			ca, cb := qa[e.U], qa[e.V]
			if ca == cb {
				// A level edge of weight w is w original edges.
				li[ca] += int64(e.W)
				continue
			}
			le = append(le, graph.Edge{U: ca, V: cb, W: e.W})
		}
		intraEW[w] = li
		edgesW[w] = le
	})
	reduceHistograms(out.Intra, intraEW)
	out.Graph = aggregateQuotient(qc, concatEdges(edgesW), "contract")
	return out
}

func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
