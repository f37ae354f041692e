package community

import (
	"math"

	"snap/internal/graph"
)

// Quality measures beyond modularity, used to evaluate clusterings —
// including conductance, the measure the paper contrasts modularity
// against when discussing partitioning-based clustering heuristics
// (Section 2.2), and NMI for comparing against planted ground truth.

// Coverage is the fraction of edges that are intra-community.
// Coverage 1 means no inter-community edges.
func Coverage(g *graph.Graph, assign []int32) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	intra := 0
	for _, e := range g.EdgeEndpoints() {
		if assign[e.U] == assign[e.V] {
			intra++
		}
	}
	return float64(intra) / float64(m)
}

// Conductance returns the conductance of every community: the number
// of boundary edges divided by the smaller of the community's and the
// complement's total degree. Lower is better; isolated communities
// (no boundary) get 0; degenerate communities (zero volume on either
// side) get 1 (the standard worst-case convention).
func Conductance(g *graph.Graph, assign []int32, count int) []float64 {
	volume := make([]float64, count)
	boundary := make([]float64, count)
	var totalVol float64
	for v := 0; v < g.NumVertices(); v++ {
		d := float64(g.Degree(int32(v)))
		volume[assign[v]] += d
		totalVol += d
	}
	for _, e := range g.EdgeEndpoints() {
		if assign[e.U] != assign[e.V] {
			boundary[assign[e.U]]++
			boundary[assign[e.V]]++
		}
	}
	out := make([]float64, count)
	for c := 0; c < count; c++ {
		minVol := volume[c]
		if other := totalVol - volume[c]; other < minVol {
			minVol = other
		}
		switch {
		case boundary[c] == 0:
			out[c] = 0
		case minVol == 0:
			out[c] = 1
		default:
			out[c] = boundary[c] / minVol
		}
	}
	return out
}

// NMI computes the normalized mutual information between two
// clusterings of the same vertex set (1 = identical partitions up to
// relabeling, ~0 = independent). Standard for scoring recovered
// communities against planted ground truth.
func NMI(a, b []int32) float64 {
	n := len(a)
	if n == 0 || len(b) != n {
		return 0
	}
	ka, kb := maxLabel(a)+1, maxLabel(b)+1
	joint := make([]float64, ka*kb)
	ca := make([]float64, ka)
	cb := make([]float64, kb)
	for i := 0; i < n; i++ {
		joint[int(a[i])*int(kb)+int(b[i])]++
		ca[a[i]]++
		cb[b[i]]++
	}
	fn := float64(n)
	var mi, ha, hb float64
	for i := int32(0); i < ka; i++ {
		for j := int32(0); j < kb; j++ {
			p := joint[int(i)*int(kb)+int(j)] / fn
			if p > 0 {
				mi += p * math.Log(p/((ca[i]/fn)*(cb[j]/fn)))
			}
		}
	}
	for _, c := range ca {
		if c > 0 {
			p := c / fn
			ha -= p * math.Log(p)
		}
	}
	for _, c := range cb {
		if c > 0 {
			p := c / fn
			hb -= p * math.Log(p)
		}
	}
	if ha == 0 && hb == 0 {
		return 1 // both trivial single-cluster partitions
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0
	}
	return mi / denom
}

func maxLabel(xs []int32) int32 {
	var mx int32
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return mx
}
