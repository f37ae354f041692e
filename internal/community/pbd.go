package community

import (
	"math/rand"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/components"
	"snap/internal/graph"
	"snap/internal/par"
)

// PBDOptions configures the approximate-betweenness divisive algorithm
// (Algorithm 1 of the paper).
type PBDOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// SampleFraction is the fraction of a component's vertices used as
	// traversal sources when estimating edge betweenness (paper: 5%
	// sampling estimates top-1% centrality within ~20%). 0 => 0.05.
	SampleFraction float64
	// MinSamples floors the per-component sample count (default 32).
	MinSamples int
	// SwitchThreshold is the component size at or below which the
	// algorithm switches from approximate to exact per-component
	// betweenness — the paper's semi-automatic parallelism/accuracy
	// granularity switch (controlled by a user parameter). 0 => 1024.
	SwitchThreshold int
	// UseBridgeHeuristic enables the optional step 1 of Algorithm 1:
	// biconnected components are computed up front and bridge edges
	// are seeded as known high-centrality candidates.
	UseBridgeHeuristic bool
	// MaxRemovals caps edge removals (0 = up to m).
	MaxRemovals int
	// Patience stops the division after this many consecutive
	// removals without a new best modularity (0 = run to MaxRemovals).
	Patience int
	// RefreshInterval is the number of removals a large component may
	// absorb before its approximate scores are recomputed. Between
	// refreshes, removals consume the cached candidate ranking — the
	// paper's "only recompute approximate betweenness scores of the
	// known high-centrality edges". Components at or below
	// SwitchThreshold always refresh exactly (cheap). 0 => 16.
	RefreshInterval int
	// Seed makes source sampling deterministic.
	Seed int64
}

func (o *PBDOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = par.Workers()
	}
	if !(o.SampleFraction > 0) {
		o.SampleFraction = 0.05
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 32
	}
	if o.SwitchThreshold <= 0 {
		o.SwitchThreshold = 1024
	}
	if o.RefreshInterval <= 0 {
		o.RefreshInterval = 16
	}
}

// PBD is the parallel approximate-betweenness divisive clustering
// algorithm (pBD), Girvan–Newman's removal loop engineered. While a
// component is larger than SwitchThreshold, its edge betweenness is
// estimated from a fixed SampleFraction of its vertices as sources
// (floored at MinSamples) and refreshed every RefreshInterval
// removals; at or below the threshold it is exact and refreshed on
// every split. Connectivity after each cut is tested with the
// bidirectional search bfs.STSearch, and modularity and the dendrogram
// are maintained incrementally (the parallel O(m) steps 6–7 of
// Algorithm 1 reduce to incremental O(split) updates plus parallel
// traversals). It is the package's only divisive loop: GirvanNewman
// runs it at exact settings.
func PBD(g *graph.Graph, opt PBDOptions) (Clustering, *Dendrogram) {
	opt.fill()
	n, m := g.NumVertices(), g.NumEdges()
	maxRemovals := opt.MaxRemovals
	if maxRemovals <= 0 || maxRemovals > m {
		maxRemovals = m
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	lab := components.Connected(g, alive)
	assign := lab.Comp
	// Community ids stay below n: every split adds one community, and
	// there are never more communities than vertices.
	members := make([][]int32, n)
	for v, c := range assign {
		members[c] = append(members[c], int32(v))
	}
	nextComm := int32(lab.Count)

	// Q = totalsQ(in, sq, m), kept current as communities split.
	intra, degsum := make([]int64, n), make([]int64, n)
	var in int64
	var sq uint64
	account := func(c int32) {
		in -= intra[c]
		sq -= uint64(degsum[c]) * uint64(degsum[c])
		intra[c], degsum[c] = communityStats(g, assign, c, members[c])
		in += intra[c]
		sq += uint64(degsum[c]) * uint64(degsum[c])
	}
	scores := make([]float64, m)
	stale := make([]int, n) // removals since the community's last refresh
	refresh := func(c int32) {
		zeroComponentScores(g, members[c], alive, scores)
		refreshScores(g, alive, members[c], scores, opt, rng)
		stale[c] = 0
	}
	for c := int32(0); c < nextComm; c++ {
		account(c)
		refresh(c)
	}
	dend := NewDendrogram(assign, int(nextComm), totalsQ(in, sq, m))

	// Optional step 1: a bridge carries all s-t dependencies across
	// it; boost its initial score so sampling noise cannot hide it.
	if opt.UseBridgeHeuristic {
		for _, b := range components.Biconnected(g).Bridges() {
			scores[b] *= 1.5
		}
	}

	endpoints := g.EdgeEndpoints()
	clusters := lab.Count
	sinceBest := 0
	var search bfs.STSearch
	for iter := 0; iter < maxRemovals; iter++ {
		em := centrality.MaxEdge(scores, alive)
		if em < 0 {
			break
		}
		alive[em] = false
		u, v := endpoints[em].U, endpoints[em].V
		comm := assign[u]

		if connected, _, side := search.Run(g, u, v, alive); !connected {
			newComm := nextComm
			nextComm++
			side = append([]int32(nil), side...) // side aliases search
			for _, w := range side {
				assign[w] = newComm
			}
			var other []int32
			for _, w := range members[comm] {
				if assign[w] == comm {
					other = append(other, w)
				}
			}
			members[newComm], members[comm] = side, other
			account(newComm)
			account(comm)
			clusters++

			// A split partially invalidates both fragments' scores
			// (cross-fragment dependencies died with the cut edge).
			// Small fragments refresh immediately — exact and cheap —
			// while large fragments keep their (approximately valid:
			// intra-fragment paths are unchanged) cached ranking and
			// are pushed toward their next scheduled refresh. Eager
			// whole-fragment refreshes on every split would dominate
			// the runtime on graphs that peel, e.g. R-MAT peripheries.
			for _, c := range [2]int32{newComm, comm} {
				if stale[c] += 2; len(members[c]) <= opt.SwitchThreshold || stale[c] >= opt.RefreshInterval {
					refresh(c)
				}
			}
		} else if stale[comm]++; stale[comm] >= opt.RefreshInterval {
			// No split: the cached candidate ranking serves until
			// RefreshInterval removals have accumulated.
			refresh(comm)
		}

		prevBest := dend.BestQ
		dend.Record(DendrogramEvent{
			Step:     iter,
			A:        comm,
			B:        nextComm - 1,
			EdgeID:   em,
			Clusters: clusters,
			Q:        totalsQ(in, sq, m),
		}, assign, clusters)
		if dend.BestQ > prevBest {
			sinceBest = 0
		} else {
			sinceBest++
			if opt.Patience > 0 && sinceBest >= opt.Patience {
				break
			}
		}
	}
	return dend.Best(), dend
}

// totalsQ is modularity from two exact totals, Q = I/m − S/(4m²), with
// I = Σ intra and S = Σ degsum² over the communities (S < (2m)² fits a
// uint64). Integer totals make Q a function of the partition alone,
// whatever order it was reached in.
func totalsQ(in int64, sq uint64, m int) float64 {
	if m == 0 {
		return 0
	}
	fm := float64(m)
	return float64(in)/fm - float64(sq)/(4*fm*fm)
}

// communityStats returns the intra-edge count and total degree of
// community c, whose member list is members. Modularity is always
// measured against the ORIGINAL graph (Newman–Girvan), so intra counts
// original edges between members, regardless of alive status.
func communityStats(g *graph.Graph, assign []int32, c int32, members []int32) (intra, degsum int64) {
	for _, v := range members {
		degsum += int64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if u > v && assign[u] == c {
				intra++
			}
		}
	}
	return intra, degsum
}

// zeroComponentScores clears the cached betweenness of every alive
// edge incident to the given vertices (exactly the edges whose scores
// the follow-up component-local recomputation will repopulate).
func zeroComponentScores(g *graph.Graph, vertices []int32, alive []bool, scores []float64) {
	for _, v := range vertices {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			if id := g.EID[a]; alive[id] {
				scores[id] = 0
			}
		}
	}
}

// refreshScores recomputes the betweenness estimate of every alive
// edge inside the component given by its member list. Components at or
// below the switch threshold get exact scores (every member is a
// source); larger components get sampled approximate scores scaled to
// the exact range. Traversals are parallelized coarsely over sources.
func refreshScores(g *graph.Graph, alive []bool, comp []int32, scores []float64, opt PBDOptions, rng *rand.Rand) {
	if len(comp) < 2 {
		return
	}
	sources := comp
	scale := 1.0
	if len(comp) > opt.SwitchThreshold {
		k := int(opt.SampleFraction * float64(len(comp)))
		if k < opt.MinSamples {
			k = opt.MinSamples
		}
		if k < len(comp) {
			sources = sampleVertices(comp, k, rng)
			scale = float64(len(comp)) / float64(k)
		}
	}
	part := centrality.Betweenness(g, centrality.BetweennessOptions{
		Workers:     opt.Workers,
		Alive:       alive,
		ComputeEdge: true,
		Sources:     sources,
	})
	for id, s := range part.Edge {
		if s != 0 {
			scores[id] += s * scale
		}
	}
}

func sampleVertices(comp []int32, k int, rng *rand.Rand) []int32 {
	// Partial Fisher–Yates over a copy.
	cp := append([]int32(nil), comp...)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:k]
}
