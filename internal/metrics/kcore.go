package metrics

import "snap/internal/graph"

// KCore computes the core number of every vertex (the largest k such
// that the vertex belongs to a maximal subgraph of minimum degree k)
// with the linear-time peeling algorithm of Batagelj & Zaveršnik.
// Core decomposition is a standard SNA preprocessing step alongside
// the rich-club coefficient: the innermost cores locate the densely
// connected nucleus of a small-world network.
func KCore(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	if n == 0 {
		return core
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	binStart := make([]int32, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	order := make([]int32, n) // vertices sorted by current degree
	pos := make([]int32, n)   // position of each vertex in order
	cursor := make([]int32, maxDeg+1)
	copy(cursor, binStart[:maxDeg+1])
	for v := int32(0); int(v) < n; v++ {
		p := cursor[deg[v]]
		order[p] = v
		pos[v] = p
		cursor[deg[v]]++
	}
	// binStart[d] = index of the first vertex with degree >= d.
	for i := int32(0); int(i) < n; i++ {
		v := order[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] <= deg[v] {
				continue
			}
			// Move u to the front of its degree bin, then shrink it.
			du := deg[u]
			pu := pos[u]
			pw := binStart[du]
			w := order[pw]
			if u != w {
				order[pu], order[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			binStart[du]++
			deg[u]--
		}
	}
	return core
}

// Degeneracy reports the maximum core number (the graph degeneracy).
func Degeneracy(g *graph.Graph) int {
	var mx int32
	for _, c := range KCore(g) {
		if c > mx {
			mx = c
		}
	}
	return int(mx)
}
