// Package metrics implements the network-analysis indices SNAP exposes
// for exploratory study of small-world networks: degree statistics,
// clustering coefficient, assortativity, average neighbor
// connectivity, rich-club coefficient, and (sampled) average shortest
// path length. Most are linear-work and parallelized over vertices.
package metrics

import (
	"math"
	"sort"

	"snap/internal/bfs"
	"snap/internal/graph"
	"snap/internal/par"
	"snap/internal/sketch"
)

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Hist[d] is the number of vertices with degree d.
	Hist []int
}

// Degrees computes degree statistics.
func Degrees(g *graph.Graph) DegreeStats {
	n := g.NumVertices()
	st := DegreeStats{Min: math.MaxInt}
	if n == 0 {
		st.Min = 0
		return st
	}
	maxd := 0
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		if d < st.Min {
			st.Min = d
		}
		if d > maxd {
			maxd = d
		}
		st.Mean += float64(d)
	}
	st.Max = maxd
	st.Mean /= float64(n)
	st.Hist = make([]int, maxd+1)
	for v := 0; v < n; v++ {
		st.Hist[g.Degree(int32(v))]++
	}
	return st
}

// LocalClustering returns the local clustering coefficient of every
// vertex: the fraction of pairs of neighbors that are themselves
// adjacent. Vertices of degree < 2 get 0. Neighbor-pair adjacency is
// tested by sorted-adjacency intersection, parallelized over vertices
// with guided scheduling (per-vertex work is O(deg^2)-ish and skewed).
func LocalClustering(g *graph.Graph, workers int) []float64 {
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	out := make([]float64, n)
	par.ForGuidedN(n, 64, workers, func(vi int) {
		v := int32(vi)
		adj := g.Neighbors(v)
		d := len(adj)
		if d < 2 {
			return
		}
		links := 0
		for i := 0; i < d; i++ {
			u := adj[i]
			if u == v {
				continue
			}
			links += graph.SortedIntersectCount(g.Neighbors(u), adj[i+1:])
		}
		out[vi] = 2 * float64(links) / (float64(d) * float64(d-1))
	})
	return out
}

// GlobalClustering returns the mean local clustering coefficient (the
// Watts–Strogatz network clustering coefficient).
func GlobalClustering(g *graph.Graph, workers int) float64 {
	cc := LocalClustering(g, workers)
	if len(cc) == 0 {
		return 0
	}
	var s float64
	for _, c := range cc {
		s += c
	}
	return s / float64(len(cc))
}

// Transitivity returns the global transitivity ratio
// 3*triangles / #connected-triples.
func Transitivity(g *graph.Graph, workers int) float64 {
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	closed := make([]int64, workers)
	triples := make([]int64, workers)
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		var c, t int64
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			adj := g.Neighbors(v)
			d := int64(len(adj))
			t += d * (d - 1) / 2
			for i := 0; i < len(adj); i++ {
				c += int64(graph.SortedIntersectCount(g.Neighbors(adj[i]), adj[i+1:]))
			}
		}
		closed[w] += c
		triples[w] += t
	})
	var c, t int64
	for w := 0; w < workers; w++ {
		c += closed[w]
		t += triples[w]
	}
	if t == 0 {
		return 0
	}
	// Each triangle is counted once per apex vertex whose two lower
	// neighbors close it; summing the pairwise intersections counts
	// each triangle exactly three times across its three vertices.
	return float64(c) / float64(t)
}

// Assortativity returns Newman's degree assortativity coefficient r:
// the Pearson correlation of the degrees at the two ends of each edge.
// r > 0 indicates assortative mixing (hubs link to hubs); r < 0
// indicates disassortative mixing, typical of technological networks.
func Assortativity(g *graph.Graph) float64 {
	var s1, s2, s3 float64 // sum of products, sum of (j+k)/2, sum of (j^2+k^2)/2
	m := 0
	for _, e := range g.EdgeEndpoints() {
		j := float64(g.Degree(e.U))
		k := float64(g.Degree(e.V))
		s1 += j * k
		s2 += (j + k) / 2
		s3 += (j*j + k*k) / 2
		m++
	}
	if m == 0 {
		return 0
	}
	fm := float64(m)
	num := s1/fm - (s2/fm)*(s2/fm)
	den := s3/fm - (s2/fm)*(s2/fm)
	if den == 0 {
		return 0
	}
	return num / den
}

// AvgNeighborDegree returns, for each degree class k, the average
// degree of the neighbors of degree-k vertices (knn(k), the average
// neighbor connectivity). Missing degree classes hold NaN.
func AvgNeighborDegree(g *graph.Graph) []float64 {
	n := g.NumVertices()
	maxd := g.MaxDegree()
	sum := make([]float64, maxd+1)
	cnt := make([]float64, maxd+1)
	for vi := 0; vi < n; vi++ {
		v := int32(vi)
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		var s float64
		for _, u := range g.Neighbors(v) {
			s += float64(g.Degree(u))
		}
		sum[d] += s / float64(d)
		cnt[d]++
	}
	out := make([]float64, maxd+1)
	for k := range out {
		if cnt[k] == 0 {
			out[k] = math.NaN()
		} else {
			out[k] = sum[k] / cnt[k]
		}
	}
	return out
}

// RichClub returns the rich-club coefficient phi(k) for each degree
// threshold k: the edge density among vertices of degree > k.
// Entries where fewer than two vertices qualify hold NaN.
func RichClub(g *graph.Graph) []float64 {
	maxd := g.MaxDegree()
	out := make([]float64, maxd+1)
	n := g.NumVertices()
	// Sort vertices by degree descending so each threshold is a prefix.
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	sort.Slice(verts, func(i, j int) bool {
		return g.Degree(verts[i]) > g.Degree(verts[j])
	})
	inClub := make([]bool, n)
	idx := 0
	edgesIn := 0
	for k := maxd; k >= 0; k-- {
		// Admit all vertices with degree > k.
		for idx < n && g.Degree(verts[idx]) > k {
			v := verts[idx]
			for _, u := range g.Neighbors(v) {
				if inClub[u] {
					edgesIn++
				}
			}
			inClub[v] = true
			idx++
		}
		nk := idx
		if nk < 2 {
			out[k] = math.NaN()
			continue
		}
		out[k] = 2 * float64(edgesIn) / (float64(nk) * float64(nk-1))
	}
	return out
}

// PathLengthOptions configures AvgPathLength.
type PathLengthOptions struct {
	// Samples bounds the number of BFS sources; <= 0 runs all-pairs
	// (exact) when n <= 1024 and 256 samples otherwise. Ignored when
	// Approx is set (the sketch tier touches every vertex at once).
	Samples int
	// Seed drives source sampling (and the sketch hash under Approx);
	// 0 means the repo-wide deterministic default (sketch.DefaultSeed).
	Seed    int64
	Workers int
	// Approx routes the whole computation through the HyperANF sketch
	// tier (internal/sketch): one union-sweep pass over all vertices
	// simultaneously instead of per-source traversals. Orders of
	// magnitude faster on large small-world graphs at a few percent
	// relative error; the returned diameter lower bound becomes the
	// sketch's diameter estimate (not a certified bound).
	Approx bool
	// Registers is the per-vertex HLL register count under Approx
	// (0 means 64; see sketch.ANFOptions.Registers).
	Registers int
}

// AvgPathLength estimates the average shortest-path length over
// reachable pairs by BFS from sampled sources, and also returns the
// largest distance seen (a diameter lower bound). With Approx set it
// delegates to the HyperANF neighborhood-function kernel, whose mean
// distance covers ALL reachable pairs (no source sampling error, HLL
// estimation error instead).
func AvgPathLength(g *graph.Graph, opt PathLengthOptions) (avg float64, diamLB int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	if opt.Approx {
		r := sketch.ANF(g, sketch.ANFOptions{
			Registers: opt.Registers,
			Seed:      opt.Seed,
			Workers:   opt.Workers,
		})
		return r.AvgPathLength, r.DiameterEstimate
	}
	samples := opt.Samples
	if samples <= 0 {
		if n <= 1024 {
			samples = n
		} else {
			samples = 256
		}
	}
	if samples > n {
		samples = n
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	sources := sketch.SampleVertices(n, samples, opt.Seed)
	// Per-worker partial sums, padded to a cache line so adjacent
	// workers' updates do not false-share; merged after the sweep. Each
	// source contributes O(1) reduction work: the workspace tracks the
	// distance sum, reach count, and eccentricity of its traversal.
	type plAcc struct {
		dist  int64
		pairs int64
		maxD  int32
		_     [44]byte
	}
	accs := make([]plAcc, workers)
	bfs.MultiSourceWorkspace(g, sources, -1, workers, func(w, _ int, ws *bfs.Workspace) {
		a := &accs[w]
		a.dist += ws.SumDist()
		a.pairs += int64(ws.Reached() - 1) // every reached vertex but the source
		if m := ws.MaxDist(); m > a.maxD {
			a.maxD = m
		}
	})
	var totalDist, totalPairs int64
	var maxD int32
	for i := range accs {
		totalDist += accs[i].dist
		totalPairs += accs[i].pairs
		if accs[i].maxD > maxD {
			maxD = accs[i].maxD
		}
	}
	if totalPairs == 0 {
		return 0, 0
	}
	return float64(totalDist) / float64(totalPairs), int(maxD)
}

// IsBipartite reports whether the graph is 2-colorable (one of the
// "specific graph class" checks the paper's preprocessing uses to pick
// analysis algorithms). Each component is colored by BFS-level parity
// through the shared frontier engine, then a single arc scan looks for
// a same-side edge (an odd cycle).
func IsBipartite(g *graph.Graph) bool {
	n := g.NumVertices()
	side := make([]int8, n) // 0 = unvisited, 1 / 2 = level parity
	ws := bfs.AcquireWorkspace(n)
	defer bfs.ReleaseWorkspace(ws)
	for root := int32(0); int(root) < n; root++ {
		if side[root] != 0 {
			continue
		}
		ws.Run(g, root, nil, -1)
		for _, v := range ws.Order() {
			side[v] = int8(1 + ws.Dist(v)&1)
		}
	}
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.Neighbors(v) {
			if side[u] == side[v] && u != v {
				return false
			}
		}
	}
	return true
}
