// Package generate provides the synthetic graph families used by the
// SNAP experiments: R-MAT small-world networks, sparse Erdős–Rényi
// random graphs, road-network-like 2-D meshes, Watts–Strogatz rings,
// planted-partition community benchmarks, and preferential-attachment
// graphs. All generators are deterministic given a seed.
package generate

import (
	"math/rand"

	"snap/internal/graph"
)

// RMATParams are the quadrant probabilities of the recursive matrix
// generator (Chakrabarti, Zhan & Faloutsos, SDM 2004). The defaults
// match the skewed settings commonly used for small-world synthetic
// graphs (and SNAP's RMAT-SF instance).
type RMATParams struct {
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities at each recursion
	// level to avoid exact self-similarity artifacts; 0 disables.
	Noise float64
}

// DefaultRMAT returns the standard skewed R-MAT parameters
// (a=0.55, b=0.1, c=0.1, d=0.25).
func DefaultRMAT() RMATParams {
	return RMATParams{A: 0.55, B: 0.1, C: 0.1, D: 0.25, Noise: 0.05}
}

// RMAT generates an undirected R-MAT graph with n vertices (rounded up
// to a power of two internally, then endpoints reduced mod n) and
// approximately m edges (self-loops and duplicates are dropped during
// CSR construction, so the final edge count may be slightly lower).
func RMAT(n, m int, p RMATParams, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := rmatEdge(rng, levels, p)
		u %= int32(n)
		v %= int32(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

func rmatEdge(rng *rand.Rand, levels int, p RMATParams) (int32, int32) {
	var u, v int32
	a, b, c, d := p.A, p.B, p.C, p.D
	for l := 0; l < levels; l++ {
		aa, bb, cc, dd := a, b, c, d
		if p.Noise > 0 {
			aa *= 1 - p.Noise + 2*p.Noise*rng.Float64()
			bb *= 1 - p.Noise + 2*p.Noise*rng.Float64()
			cc *= 1 - p.Noise + 2*p.Noise*rng.Float64()
			dd *= 1 - p.Noise + 2*p.Noise*rng.Float64()
			s := aa + bb + cc + dd
			aa, bb, cc, dd = aa/s, bb/s, cc/s, dd/s
		}
		r := rng.Float64()
		u <<= 1
		v <<= 1
		switch {
		case r < aa:
			// top-left: no bits set
		case r < aa+bb:
			v |= 1
		case r < aa+bb+cc:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
		_ = dd
	}
	return u, v
}

// ErdosRenyi generates a sparse undirected G(n, m) random graph with
// exactly m distinct edges (sampled without replacement).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	for len(edges) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// RoadMesh generates a road-network-like graph: a rows×cols 2-D grid
// with 4-neighbor connectivity, plus a fraction extra of random short
// "diagonal" shortcuts connecting vertices at grid distance 2. The
// result has the near-Euclidean topology (high diameter, uniform low
// degree, localized connectivity) that makes multilevel and spectral
// partitioners succeed — the paper's "Physical (road)" instance.
func RoadMesh(rows, cols int, extra float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	id := func(r, c int) int32 { return int32(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	nextra := int(extra * float64(len(edges)))
	for i := 0; i < nextra; i++ {
		r := rng.Intn(rows)
		c := rng.Intn(cols)
		dr := rng.Intn(3) - 1
		dc := rng.Intn(3) - 1
		r2, c2 := r+2*dr, c+2*dc
		if (dr == 0 && dc == 0) || r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
			continue
		}
		edges = append(edges, graph.Edge{U: id(r, c), V: id(r2, c2), W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// WattsStrogatz generates the classic small-world ring: n vertices each
// joined to its k nearest ring neighbors (k even), with each edge
// rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if k%2 != 0 {
		k++
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				for tries := 0; tries < 32; tries++ {
					cand := rng.Intn(n)
					if cand != u {
						v = cand
						break
					}
				}
			}
			if u != v {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
			}
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// PlantedPartition generates the planted l-partition community
// benchmark: k communities of size csize; within-community edges occur
// with probability pin and cross-community edges with probability pout.
// It returns the graph and the ground-truth community assignment.
// For tractability on large n, cross-community edges are sampled by
// count rather than by Bernoulli trial per pair.
func PlantedPartition(k, csize int, pin, pout float64, seed int64) (*graph.Graph, []int32) {
	rng := rand.New(rand.NewSource(seed))
	n := k * csize
	truth := make([]int32, n)
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		base := c * csize
		for i := 0; i < csize; i++ {
			truth[base+i] = int32(c)
		}
		for i := 0; i < csize; i++ {
			for j := i + 1; j < csize; j++ {
				if rng.Float64() < pin {
					edges = append(edges, graph.Edge{U: int32(base + i), V: int32(base + j), W: 1})
				}
			}
		}
	}
	crossPairs := float64(n) * float64(n-csize) / 2
	want := int(pout * crossPairs)
	for added := 0; added < want; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || truth[u] == truth[v] {
			continue
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
		added++
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{}), truth
}

// PreferentialAttachment generates a Barabási–Albert graph: vertices
// arrive one at a time and attach k edges to existing vertices chosen
// proportionally to degree. Produces the power-law degree distribution
// typical of collaboration and citation networks.
func PreferentialAttachment(n, k int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if k < 1 {
		k = 1
	}
	var edges []graph.Edge
	// targets holds one entry per arc endpoint so uniform sampling
	// from it is degree-proportional sampling.
	targets := make([]int32, 0, 2*n*k)
	// Seed clique of k+1 vertices.
	seedN := k + 1
	if seedN > n {
		seedN = n
	}
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j), W: 1})
			targets = append(targets, int32(i), int32(j))
		}
	}
	for v := seedN; v < n; v++ {
		chosen := make(map[int32]struct{}, k)
		for len(chosen) < k && len(chosen) < v {
			t := targets[rng.Intn(len(targets))]
			chosen[t] = struct{}{}
		}
		for t := range chosen {
			edges = append(edges, graph.Edge{U: int32(v), V: t, W: 1})
			targets = append(targets, int32(v), t)
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Tree generates a uniformly random labelled tree on n vertices via a
// random Prüfer-like attachment (each vertex i>0 attaches to a uniform
// random predecessor). Useful for testing bridge/articulation kernels:
// every edge of a tree is a bridge.
func Tree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Ring generates the n-cycle. Every vertex has degree 2 and the graph
// is biconnected; useful as a no-bridges test case.
func Ring(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + 1) % n), W: 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Complete generates the complete graph K_n.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j), W: 1})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// RandomWeights returns a copy of g with integer edge weights drawn
// uniformly from [1, maxW], for exercising weighted-path kernels.
func RandomWeights(g *graph.Graph, maxW int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := g.EdgeEndpoints()
	for i := range edges {
		edges[i].W = float64(1 + rng.Intn(maxW))
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{
		Directed: g.Directed(),
		Weighted: true,
	})
}

// RewireDegreePreserving returns a copy of g rewired by `swaps` random
// double-edge swaps: edges (a,b) and (c,d) become (a,d) and (c,b)
// when that creates no self-loop or duplicate. The result has exactly
// the degree sequence of g but randomized structure — the
// configuration-model null graph behind the modularity measure's
// "expected by random chance" term.
func RewireDegreePreserving(g *graph.Graph, swaps int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := g.EdgeEndpoints()
	m := len(edges)
	if m < 2 {
		return g
	}
	present := make(map[uint64]struct{}, m)
	key := func(u, v int32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(uint32(v))
	}
	for _, e := range edges {
		present[key(e.U, e.V)] = struct{}{}
	}
	done := 0
	for tries := 0; done < swaps && tries < 20*swaps; tries++ {
		i := rng.Intn(m)
		j := rng.Intn(m)
		if i == j {
			continue
		}
		a, b := edges[i].U, edges[i].V
		c, d := edges[j].U, edges[j].V
		// Candidate: (a,d) and (c,b).
		if a == d || c == b {
			continue
		}
		if _, dup := present[key(a, d)]; dup {
			continue
		}
		if _, dup := present[key(c, b)]; dup {
			continue
		}
		delete(present, key(a, b))
		delete(present, key(c, d))
		present[key(a, d)] = struct{}{}
		present[key(c, b)] = struct{}{}
		edges[i].V = d
		edges[j].V = b
		done++
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{})
}
