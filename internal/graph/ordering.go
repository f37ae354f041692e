package graph

import "sort"

// Cache-friendly relabeling: the paper stresses cache-friendly
// adjacency layouts for high-performance traversal. RCM (reverse
// Cuthill–McKee) clusters each vertex's neighbors into nearby ids,
// shrinking the working set of level-synchronous sweeps.

// RCMOrder computes a reverse Cuthill–McKee ordering: perm[newID] =
// oldID. Components are processed from peripheral low-degree seeds;
// within a BFS level, neighbors are visited in increasing-degree order.
func RCMOrder(g *Graph) []int32 {
	n := g.NumVertices()
	perm := make([]int32, 0, n)
	visited := make([]bool, n)

	// Seeds: global increasing-degree order, so each component starts
	// from (approximately) a peripheral vertex.
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.Degree(seeds[i]), g.Degree(seeds[j])
		if di != dj {
			return di < dj
		}
		return seeds[i] < seeds[j]
	})

	queue := make([]int32, 0, 256)
	scratch := make([]int32, 0, 64)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			perm = append(perm, v)
			scratch = scratch[:0]
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					scratch = append(scratch, u)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				di, dj := g.Degree(scratch[i]), g.Degree(scratch[j])
				if di != dj {
					return di < dj
				}
				return scratch[i] < scratch[j]
			})
			queue = append(queue, scratch...)
		}
	}
	// Reverse (the "R" in RCM).
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Bandwidth reports the maximum |u − v| over all edges — the quantity
// RCM minimizes; lower bandwidth means adjacent vertices have nearby
// ids and traversals touch fewer cache lines.
func Bandwidth(g *Graph) int64 {
	var bw int64
	for _, e := range g.EdgeEndpoints() {
		d := int64(e.U) - int64(e.V)
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	return bw
}
