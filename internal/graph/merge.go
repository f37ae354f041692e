package graph

import (
	"fmt"
	"math"
	"sort"

	"snap/internal/par"
)

// Delta-merge CSR assembly: the batch-update entry point behind the
// snapshot-epoch ingest pipeline (internal/ingest). Instead of
// re-running the full Build pipeline over a materialized edge list, a
// committed delta is merged against the previous snapshot's canonical
// buckets — for every tail u the old sorted unique bucket, the sorted
// insertion run, and the sorted deletion run are combined in one linear
// three-way walk — and the merged buckets are finalized by the same
// assembleSymmetric (undirected) or rank-id (directed) code paths Build
// uses. The result is therefore bit-identical to Build(n, E') on the
// updated edge set E', at any worker count: edge ids are the ranks of
// the unique canonical pairs in (tail, head) order, adjacency arcs are
// ordered by (neighbor, edge id), and every per-vertex walk is serial
// and deterministic.
//
// Cost: O(n + m + |delta| log |delta|) work regardless of how the
// delta is distributed, versus the parse + validate + clean + sort of a
// from-scratch rebuild — the gap the ingest benchmarks quantify.

// MergeDelta applies a batch of edge deletions and insertions to an
// immutable CSR snapshot, returning a fresh independent Graph; g is not
// modified. Semantics, applied per canonical endpoint pair:
//
//   - Deletions apply first, then insertions: a pair present in both
//     del and add ends up present (with add's weight).
//   - Deleting a pair that is absent is a no-op; inserting a pair that
//     is present replaces its weight (for weighted g) or is a no-op.
//   - Duplicate pairs inside add collapse last-wins in input order;
//     undirected pairs are unordered ({u,v} == {v,u}).
//   - Self-loops in the delta are dropped, matching Build's default.
//
// g must be a simple graph (the Build default: no self-loops, no
// parallel edges); weights in add are ignored when g is unweighted.
// Endpoints outside [0, NumVertices()) are an error — the vertex set of
// a snapshot sequence is fixed — and so is a negative, infinite or NaN
// weight in add when g is weighted.
func MergeDelta(g *Graph, add, del []Edge) (*Graph, error) {
	return MergeDeltaWorkers(g, add, del, par.Workers())
}

// MergeDeltaWorkers is MergeDelta with an explicit worker count. The
// output is bit-identical for every workers >= 1.
func MergeDeltaWorkers(g *Graph, add, del []Edge, workers int) (*Graph, error) {
	if err := g.CheckOpen(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = max(1, n)
	}
	directed := g.Directed()
	weighted := g.Weighted()

	adds, err := canonDelta(n, add, directed, weighted)
	if err != nil {
		return nil, err
	}
	dels, err := canonDelta(n, del, directed, false)
	if err != nil {
		return nil, err
	}

	// Sort the insertion run stably by canonical pair so duplicate
	// pairs collapse last-wins in input order; deletions are a set.
	sort.SliceStable(adds, func(i, j int) bool {
		if adds[i].U != adds[j].U {
			return adds[i].U < adds[j].U
		}
		return adds[i].V < adds[j].V
	})
	adds = dedupLastWins(adds)
	sort.Slice(dels, func(i, j int) bool {
		if dels[i].U != dels[j].U {
			return dels[i].U < dels[j].U
		}
		return dels[i].V < dels[j].V
	})
	dels = dedupLastWins(dels)

	// Flatten per-tail delta runs behind offset tables.
	addOff := tailRunOffsets(n, adds)
	delOff := tailRunOffsets(n, dels)
	addV := make([]int32, len(adds))
	var addW []float64
	if weighted {
		addW = make([]float64, len(adds))
	}
	for i, e := range adds {
		addV[i] = e.V
		if weighted {
			addW[i] = e.W
		}
	}
	delV := make([]int32, len(dels))
	for i, e := range dels {
		delV[i] = e.V
	}

	// Per-vertex merge cost drives the degree-aware partitioning of
	// both the count and the fill pass.
	cost := make([]int64, n)
	for v := 0; v < n; v++ {
		cost[v] = (g.Offsets[v+1] - g.Offsets[v]) +
			(addOff[v+1] - addOff[v]) + (delOff[v+1] - delOff[v])
	}

	counts := make([]int64, n)
	par.ForDegreeAware(cost, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			counts[u] = int64(mergeRun(g, int32(u),
				addV[addOff[u]:addOff[u+1]], sliceOrNil(addW, addOff[u], addOff[u+1]),
				delV[delOff[u]:delOff[u+1]], nil, nil))
		}
	})
	bucketOff := par.PrefixSum(counts)
	total := bucketOff[n]
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("graph: merged edge count %d exceeds int32 ids", total)
	}

	hV := make([]int32, total)
	var hW []float64
	if weighted {
		hW = make([]float64, total)
	}
	par.ForDegreeAware(cost, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			blo, bhi := bucketOff[u], bucketOff[u+1]
			mergeRun(g, int32(u),
				addV[addOff[u]:addOff[u+1]], sliceOrNil(addW, addOff[u], addOff[u+1]),
				delV[delOff[u]:delOff[u+1]],
				hV[blo:bhi], sliceOrNil(hW, blo, bhi))
		}
	})

	if directed {
		eid := make([]int32, total)
		par.ForChunkedN(int(total), workers, func(_, lo, hi int) {
			for a := lo; a < hi; a++ {
				eid[a] = int32(a)
			}
		})
		return &Graph{
			Offsets:  bucketOff,
			Adj:      hV,
			EID:      eid,
			W:        hW,
			directed: true,
			numEdges: int(total),
		}, nil
	}
	out := assembleSymmetric(n, bucketOff, hV, hW, counts, bucketOff, workers)
	out.numEdges = int(total)
	return out, nil
}

// canonDelta validates and canonicalizes one side of a delta: endpoints
// range-checked, weights checked when they are kept, self-loops
// dropped, undirected pairs oriented U <= V.
func canonDelta(n int, in []Edge, directed, weighted bool) ([]Edge, error) {
	out := make([]Edge, 0, len(in))
	for _, e := range in {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: delta edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if weighted {
			if err := checkWeight(e.W); err != nil {
				return nil, fmt.Errorf("graph: delta edge (%d,%d): %w", e.U, e.V, err)
			}
		}
		if e.U == e.V {
			continue
		}
		if !directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	return out, nil
}

// dedupLastWins collapses runs of equal canonical pairs (the input must
// be sorted by pair, stably for weight determinism) to the run's last
// entry — the most recent write of that pair in input order.
func dedupLastWins(edges []Edge) []Edge {
	out := edges[:0]
	for i := 0; i < len(edges); {
		j := i + 1
		for j < len(edges) && edges[j].U == edges[i].U && edges[j].V == edges[i].V {
			j++
		}
		out = append(out, edges[j-1])
		i = j
	}
	return out
}

// tailRunOffsets computes the n+1 offset table of per-tail runs inside
// a pair-sorted delta slice.
func tailRunOffsets(n int, edges []Edge) []int64 {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.U+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	return off
}

func sliceOrNil(s []float64, lo, hi int64) []float64 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// mergeRun merges vertex u's canonical bucket (heads > u for undirected
// graphs, the full sorted adjacency for directed ones) with its sorted
// unique insertion and deletion runs in one linear three-way walk,
// writing heads (and weights) into dst when non-nil. Returns the merged
// bucket size; the count pass calls it with dst == nil.
func mergeRun(g *Graph, u int32, addV []int32, addW []float64, delV []int32, dstV []int32, dstW []float64) int {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	if !g.directed {
		adj := g.Adj[lo:hi]
		lo += int64(sort.Search(len(adj), func(i int) bool { return adj[i] > u }))
	}
	// A tail with no delta keeps its bucket verbatim: bulk-copy instead
	// of walking — with a sparse delta this is almost every vertex.
	if len(addV) == 0 && len(delV) == 0 {
		if dstV != nil {
			copy(dstV, g.Adj[lo:hi])
			if dstW != nil {
				copy(dstW, g.W[lo:hi])
			}
		}
		return int(hi - lo)
	}
	j, k, cnt := 0, 0, 0
	for lo < hi || j < len(addV) {
		if j < len(addV) && (lo >= hi || addV[j] <= g.Adj[lo]) {
			// Insertion wins: it overrides an equal old head's weight
			// and revives a pair deleted in the same delta.
			h := addV[j]
			if lo < hi && g.Adj[lo] == h {
				lo++
			}
			for k < len(delV) && delV[k] <= h {
				k++
			}
			if dstV != nil {
				dstV[cnt] = h
				if dstW != nil {
					dstW[cnt] = addW[j]
				}
			}
			j++
			cnt++
			continue
		}
		h := g.Adj[lo]
		for k < len(delV) && delV[k] < h {
			k++
		}
		if k < len(delV) && delV[k] == h {
			k++
			lo++
			continue
		}
		if dstV != nil {
			dstV[cnt] = h
			if dstW != nil {
				dstW[cnt] = g.W[lo]
			}
		}
		lo++
		cnt++
	}
	return cnt
}
