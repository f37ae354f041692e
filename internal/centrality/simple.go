package centrality

import (
	"snap/internal/bfs"
	"snap/internal/graph"
	"snap/internal/par"
)

// DegreeCentrality returns the degree of every vertex as a float64
// score (the simplest local centrality index).
func DegreeCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(g.Degree(int32(v)))
	}
	return out
}

// ClosenessOptions configures closeness centrality.
type ClosenessOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
}

// Closeness computes closeness centrality CC(v) = 1 / sum_u d(v, u) on
// an unweighted graph, running one BFS per vertex with
// coarse-grained parallelism. Unreachable pairs are skipped (the
// standard convention for disconnected graphs); isolated vertices get
// score 0.
func Closeness(g *graph.Graph, opt ClosenessOptions) []float64 {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	out := make([]float64, n)
	// One epoch-stamped workspace per worker: O(reached) work per
	// source with zero steady-state allocation, and the reduction is
	// index-addressed (out[v] slots are disjoint across sources), so no
	// serialization is needed.
	bfs.MultiSourceWorkspace(g, sources, -1, workers, func(_, i int, ws *bfs.Workspace) {
		if total := ws.SumDist(); total > 0 {
			out[sources[i]] = 1 / float64(total)
		}
	})
	return out
}

// TopKVertices returns the indices of the k largest scores in
// descending order (ties toward the smaller index).
func TopKVertices(scores []float64, k int) []int32 {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return []int32{}
	}
	// Bounded min-heap on (score, -index): the root is the weakest kept
	// vertex — smallest score, ties toward the LARGER index, so that a
	// tied smaller index displaces it. O(n log k) versus the old
	// partial selection sort's O(n·k).
	heap := make([]int32, 0, k)
	worse := func(a, b int32) bool { // a ranks strictly below b
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a > b
	}
	push := func(v int32) {
		heap = append(heap, v)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	popRoot := func() {
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && worse(heap[l], heap[small]) {
				small = l
			}
			if r < last && worse(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for v := int32(0); int(v) < len(scores); v++ {
		if len(heap) < k {
			push(v)
		} else if worse(heap[0], v) {
			popRoot()
			push(v)
		}
	}
	// Extract ascending (weakest first), filling the output backwards.
	out := make([]int32, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = heap[0]
		popRoot()
	}
	return out
}
