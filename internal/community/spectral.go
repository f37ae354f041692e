package community

import (
	"math/rand"

	"snap/internal/eigen"
	"snap/internal/graph"
)

// The paper's stated ongoing work: "support for spectral analysis of
// small-world networks, and efficient parallel implementations of
// spectral algorithms that optimize modularity." This file implements
// Newman's leading-eigenvector method (PNAS 2006): communities are
// split recursively by the sign pattern of the leading eigenvector of
// the modularity matrix B = A − k kᵀ/2m, restricted to the subgraph
// under consideration, with a KL-style sign-flip refinement per split.
// The eigenvector comes from internal/eigen's Lanczos, the solver the
// Chaco-LAN partitioner uses.

// SpectralOptions configures the spectral modularity maximizer.
type SpectralOptions struct {
	// Seed drives the random Lanczos starting vectors.
	Seed int64
}

// lanczosSteps bounds the Lanczos basis built per split. A group of
// fewer members spans its whole space in as many steps.
const lanczosSteps = 100

// SpectralCommunities detects communities by recursive leading-
// eigenvector bisection of the modularity matrix, splitting while the
// modularity gain of a proposed split is positive. It complements the
// greedy pMA/pLA heuristics with a spectrally-informed partition and
// is a reference implementation of the paper's "future work" item.
func SpectralCommunities(g *graph.Graph, opt SpectralOptions) Clustering {
	n := g.NumVertices()
	m := float64(g.NumEdges())
	if n == 0 || m == 0 {
		return Singletons(g)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	assign := make([]int32, n)
	// Work queue of community ids to try splitting; members[c] lists
	// community c, and ids are assigned densely as splits succeed.
	queue := []int32{0}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	members := [][]int32{all}

	deg := make([]float64, n)
	pos := make([]int32, n) // member -> index in the group being split, -1 outside
	for v := 0; v < n; v++ {
		deg[v] = float64(g.Degree(int32(v)))
		pos[v] = -1
	}

	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		group := members[c]
		if len(group) < 2 {
			continue
		}
		for i, v := range group {
			pos[v] = int32(i)
		}
		side, gain := spectralSplit(g, group, pos, deg, m, rng)
		for _, v := range group {
			pos[v] = -1
		}
		if gain <= 1e-12 || side == nil {
			continue // indivisible community
		}
		var s0, s1 []int32
		for i, v := range group {
			if side[i] == 0 {
				s0 = append(s0, v)
			} else {
				s1 = append(s1, v)
			}
		}
		if len(s0) == 0 || len(s1) == 0 {
			continue
		}
		nc := int32(len(members))
		for _, v := range s1 {
			assign[v] = nc
		}
		members[c] = s0
		members = append(members, s1)
		queue = append(queue, c, nc)
	}
	return densify(g, assign, 0)
}

// spectralSplit computes the leading eigenvector of the generalized
// modularity matrix B^(g) restricted to group (pos maps a vertex to
// its index in group, -1 outside), proposes the sign split, refines
// it, and returns the per-member side plus the modularity gain of the
// split.
func spectralSplit(g *graph.Graph, group, pos []int32, deg []float64, m float64, rng *rand.Rand) ([]int8, float64) {
	ng := len(group)
	// Generalized modularity matrix for a subgraph (Newman 2006 eq. 6):
	// B^(g)_ij = A_ij − k_i k_j / 2m − δ_ij (k^(g)_i − k_i * K_g / 2m)
	// where k^(g)_i is i's degree within the group and K_g the total
	// group degree.
	twoM := 2 * m
	var totalDeg float64
	for _, v := range group {
		totalDeg += deg[v]
	}
	diag := make([]float64, ng)
	for i, v := range group {
		var kin float64
		for _, u := range g.Neighbors(v) {
			if pos[u] >= 0 {
				kin++
			}
		}
		diag[i] = kin - deg[v]*totalDeg/twoM
	}
	// y = −B^(g) x without materializing B: the leading eigenvector of
	// B is the smallest one of −B.
	mul := func(x, y []float64) {
		var kx float64
		for i, v := range group {
			kx += deg[v] * x[i]
		}
		for i, v := range group {
			var ax float64
			for _, u := range g.Neighbors(v) {
				if j := pos[u]; j >= 0 {
					ax += x[j]
				}
			}
			y[i] = deg[v]*kx/twoM + diag[i]*x[i] - ax
		}
	}
	// One attempt: an unconverged Ritz vector still proposes a split,
	// and the caller's gain test decides whether it is taken.
	lam, x, ok := eigen.Lanczos(ng, min(lanczosSteps, ng), mul, nil, rng)
	if !ok || lam >= 0 {
		return nil, 0 // no positive eigenvalue of B: indivisible
	}
	side := make([]int8, ng)
	for i, xv := range x {
		if xv < 0 {
			side[i] = 1
		}
	}
	return side, refineSplit(g, group, pos, side, deg, m)
}

// refineSplit scores the split of group by side and greedily flips
// single vertices between the two sides while the gain improves
// (Newman's KL-style refinement). The gain relative to keeping the
// group whole is ΔQ = −m_cross/m + (K²−K0²−K1²)/4m². The cut count and
// side volumes are running totals, so a trial flip costs the flipped
// vertex's degree; every term is an integer-valued float64, so each
// gain has the bits a from-scratch recount would give.
func refineSplit(g *graph.Graph, group, pos []int32, side []int8, deg []float64, m float64) float64 {
	var cross, k0, k1, kAll float64
	for i, v := range group {
		kAll += deg[v]
		if side[i] == 0 {
			k0 += deg[v]
		} else {
			k1 += deg[v]
		}
		for _, u := range g.Neighbors(v) {
			j := pos[u]
			if j < 0 || u <= v {
				continue
			}
			if side[i] != side[j] {
				cross++
			}
		}
	}
	twoM := 2 * m
	gainOf := func(cross, k0, k1 float64) float64 {
		return -cross/m + (kAll*kAll-k0*k0-k1*k1)/(twoM*twoM)
	}
	gain := gainOf(cross, k0, k1)
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i, v := range group {
			// Flipping v cuts its same-side edges and joins the rest.
			var same, other float64
			for _, u := range g.Neighbors(v) {
				j := pos[u]
				if j < 0 || u == v {
					continue
				}
				if side[j] == side[i] {
					same++
				} else {
					other++
				}
			}
			c, n0, n1 := cross+same-other, k0-deg[v], k1+deg[v]
			if side[i] == 1 {
				n0, n1 = k0+deg[v], k1-deg[v]
			}
			if ng := gainOf(c, n0, n1); ng > gain+1e-15 {
				gain, cross, k0, k1 = ng, c, n0, n1
				side[i] ^= 1
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return gain
}
