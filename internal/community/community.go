// Package community implements SNAP's modularity-maximizing community
// detection algorithms — the paper's core contribution:
//
//   - GN:  the Girvan–Newman exact edge-betweenness divisive baseline.
//   - pBD: the engineered divisive algorithm using adaptive-sampling
//     approximate edge betweenness, the biconnected-components bridge
//     heuristic, and a coarse/fine parallelism granularity switch.
//   - pMA: parallel greedy agglomeration (CNM-style) over a sparse ΔQ
//     structure of sorted dynamic rows with bucketed maxima.
//   - pLA: greedy local aggregation seeded after bridge removal, using
//     local metrics with a modularity acceptance test.
//
// All algorithms operate on undirected graphs (directed inputs should
// be symmetrized with graph.Undirected, matching the paper: "we ignore
// edge directivity in the community detection algorithms").
package community

import (
	"fmt"

	"snap/internal/graph"
	"snap/internal/par"
)

// Clustering is a partition of the vertices into communities.
type Clustering struct {
	// Assign maps each vertex to a dense community id in [0, Count).
	Assign []int32
	// Count is the number of communities.
	Count int
	// Q is the modularity of the partition.
	Q float64
}

// Sizes returns the number of vertices in each community.
func (c Clustering) Sizes() []int {
	sizes := make([]int, c.Count)
	for _, id := range c.Assign {
		sizes[id]++
	}
	return sizes
}

// Members returns the vertex lists of all communities.
func (c Clustering) Members() [][]int32 {
	out := make([][]int32, c.Count)
	for v, id := range c.Assign {
		out[id] = append(out[id], int32(v))
	}
	return out
}

// String summarizes the clustering.
func (c Clustering) String() string {
	return fmt.Sprintf("clustering{k=%d, Q=%.4f}", c.Count, c.Q)
}

// Singletons returns the clustering with every vertex in its own
// community.
func Singletons(g *graph.Graph) Clustering {
	n := g.NumVertices()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i)
	}
	return Clustering{Assign: assign, Count: n, Q: Modularity(g, assign, 0)}
}

// Modularity computes Newman–Girvan modularity
//
//	Q(C) = sum_i [ m(C_i)/m − (sum_{v in C_i} deg(v) / 2m)^2 ]
//
// of the partition given by assign (community ids need not be dense)
// on the unweighted undirected graph g. The O(m) edge scan and O(n)
// degree scan are parallelized with `workers` goroutines (<= 0 means
// par.Workers()).
func Modularity(g *graph.Graph, assign []int32, workers int) float64 {
	if workers <= 0 {
		workers = par.Workers()
	}
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	maxID := int32(-1)
	for _, id := range assign {
		if id > maxID {
			maxID = id
		}
	}
	k := int(maxID) + 1
	intra := make([][]int64, workers)  // per-worker intra-edge counts
	degsum := make([][]int64, workers) // per-worker degree sums
	n := g.NumVertices()
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		li := make([]int64, k)
		ld := make([]int64, k)
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			cv := assign[v]
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			ld[cv] += ahi - alo
			for a := alo; a < ahi; a++ {
				u := g.Adj[a]
				if u > v && assign[u] == cv {
					li[cv]++
				}
			}
		}
		intra[w] = li
		degsum[w] = ld
	})
	var q float64
	twoM := 2 * m
	for c := 0; c < k; c++ {
		var mi, di int64
		for w := 0; w < workers; w++ {
			mi += intra[w][c]
			di += degsum[w][c]
		}
		frac := float64(di) / twoM
		q += float64(mi)/m - frac*frac
	}
	return q
}

var relabelPool = par.NewPool(func() *relabeler { return &relabeler{} })

// densify renumbers arbitrary community labels to [0, Count) in
// first-seen order and computes Q. The renumbering runs through a
// pooled epoch-stamped relabeler — two array probes per vertex instead
// of a map insert.
func densify(g *graph.Graph, assign []int32, workers int) Clustering {
	out := make([]int32, len(assign))
	maxID := int32(-1)
	for _, l := range assign {
		if l > maxID {
			maxID = l
		}
	}
	r := relabelPool.Get()
	r.ensure(int(maxID) + 1)
	r.begin()
	for v, l := range assign {
		out[v] = r.id(l)
	}
	count := int(r.next)
	relabelPool.Put(r)
	return Clustering{Assign: out, Count: count, Q: Modularity(g, out, workers)}
}
