package components

import (
	"slices"

	"snap/internal/graph"
	"snap/internal/par"
)

// MST is a minimum spanning forest.
type MST struct {
	// EdgeIDs are the ids of the chosen forest edges.
	EdgeIDs []int32
	// TotalWeight is the sum of chosen edge weights.
	TotalWeight float64
}

// BoruvkaMST computes a minimum spanning forest with parallel Borůvka
// iterations: each round finds, in parallel, the lightest incident edge
// of every current component (ties broken by edge id for determinism),
// then contracts the chosen edges with a union-find. Small-world graphs
// need only O(log n) rounds. Unweighted graphs yield an arbitrary
// (deterministic) spanning forest of weight = #edges chosen. The result
// — EdgeIDs in order and TotalWeight bit for bit — is the same on every
// run and at every worker count.
func BoruvkaMST(g *graph.Graph, workers int) MST {
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	uf := NewUnionFind(n)
	var chosen []int32
	var total float64

	endpoints := g.EdgeEndpoints()

	for {
		// best[rep] = lightest edge leaving that component this round.
		best := make(map[int32]mstCand)
		// Compute per-worker candidate maps, then merge. (On small
		// graphs one worker wins; on big graphs maps stay private
		// until the cheap merge.)
		results := make([]map[int32]mstCand, workers)
		par.ForChunkedN(len(endpoints), workers, func(w, lo, hi int) {
			local := make(map[int32]mstCand)
			for i := lo; i < hi; i++ {
				e := endpoints[i]
				ru, rv := uf.findRO(e.U), uf.findRO(e.V)
				if ru == rv {
					continue
				}
				wgt := e.W
				if !g.Weighted() {
					wgt = 1
				}
				c := mstCand{w: wgt, eid: int32(i), u: ru, v: rv}
				for _, r := range [2]int32{ru, rv} {
					if cur, ok := local[r]; !ok || less(c, cur) {
						local[r] = c
					}
				}
			}
			results[w] = local
		})
		for _, local := range results {
			for r, c := range local {
				if cur, ok := best[r]; !ok || less(c, cur) {
					best[r] = c
				}
			}
		}
		if len(best) == 0 {
			break
		}
		// Contract in ascending representative order, so the forest's
		// edge order and the summation order of its weight do not depend
		// on map iteration.
		reps := make([]int32, 0, len(best))
		for r := range best {
			reps = append(reps, r)
		}
		slices.Sort(reps)
		merged := 0
		for _, r := range reps {
			c := best[r]
			if uf.Union(c.u, c.v) {
				chosen = append(chosen, c.eid)
				total += c.w
				merged++
			}
		}
		if merged == 0 {
			break
		}
	}
	return MST{EdgeIDs: chosen, TotalWeight: total}
}

// mstCand is a candidate lightest edge for one component in a Borůvka
// round: weight, edge id, and the two component representatives.
type mstCand struct {
	w    float64
	eid  int32
	u, v int32
}

func less(a, b mstCand) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.eid < b.eid
}

// findRO is Find without path mutation, safe for concurrent readers
// while no Union is in flight.
func (u *UnionFind) findRO(v int32) int32 {
	for u.parent[v] != v {
		v = u.parent[v]
	}
	return v
}
