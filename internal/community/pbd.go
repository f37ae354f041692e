package community

import (
	"math/rand"

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
// algorithm (pBD). It follows the Girvan–Newman structure but replaces
// exact betweenness with adaptive sampled approximation while
// components are large, switching to exact component-local betweenness
// once the graph has fragmented below SwitchThreshold; connectivity
// after each cut is tested with a bidirectional search, and modularity
// and the dendrogram are maintained incrementally (the parallel O(m)
// steps 6–7 of Algorithm 1 reduce to incremental O(split) updates plus
// parallel traversals).
func PBD(g *graph.Graph, opt PBDOptions) (Clustering, *Dendrogram) {
	opt.fill()
	m := g.NumEdges()
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
	members := make(map[int32][]int32, lab.Count)
	for v, c := range assign {
		members[c] = append(members[c], int32(v))
	}
	nextComm := int32(lab.Count)
	st := NewCommunityStats(g, assign, lab.Count)
	intra := make(map[int32]int64, lab.Count)
	degsum := make(map[int32]int64, lab.Count)
	for c := 0; c < lab.Count; c++ {
		intra[int32(c)] = st.Intra[c]
		degsum[int32(c)] = st.DegSum[c]
	}
	q := modularityFromMaps(intra, degsum, float64(m))
	dend := NewDendrogram(assign, int(nextComm), q)

	// Optional step 1: bridges are likely high-centrality edges; give
	// them an initial score boost so the first removals consider them
	// even before a full estimate refresh.
	bridgeBoost := make(map[int32]bool)
	if opt.UseBridgeHeuristic {
		bc := components.Biconnected(g)
		for _, b := range bc.Bridges() {
			bridgeBoost[b] = true
		}
	}

	// Initial approximate scores over each initial component.
	scores := make([]float64, m)
	for c := int32(0); c < nextComm; c++ {
		refreshScores(g, alive, members[c], scores, opt, rng)
	}
	for b := range bridgeBoost {
		// A bridge carries all s-t dependencies across it; make sure
		// sampling noise cannot hide it at the start.
		if alive[b] {
			scores[b] *= 1.5
		}
	}

	endpoints := g.EdgeEndpoints()
	clusters := lab.Count
	sinceBest := 0
	stale := make(map[int32]int, lab.Count) // removals since last refresh
	for iter := 0; iter < maxRemovals; iter++ {
		em := centrality.MaxEdge(scores, alive)
		if em < 0 {
			break
		}
		alive[em] = false
		u, v := endpoints[em].U, endpoints[em].V
		comm := assign[u]

		side, connected := bidirSplit(g, alive, u, v)
		if !connected {
			newComm := nextComm
			nextComm++
			inSide := make(map[int32]bool, len(side))
			for _, w := range side {
				inSide[w] = true
			}
			var other []int32
			for _, w := range members[comm] {
				if !inSide[w] {
					other = append(other, w)
				}
			}
			for _, w := range side {
				assign[w] = newComm
			}
			members[newComm] = side
			members[comm] = other
			recomputeStats(g, assign, newComm, side, intra, degsum)
			recomputeStats(g, assign, comm, other, intra, degsum)
			clusters++
			q = modularityFromMaps(intra, degsum, float64(m))

			// A split partially invalidates both fragments' scores
			// (cross-fragment dependencies died with the cut edge).
			// Small fragments refresh immediately — exact and cheap —
			// while large fragments keep their (approximately valid:
			// intra-fragment paths are unchanged) cached ranking and
			// are pushed toward their next scheduled refresh. Eager
			// whole-fragment refreshes on every split would dominate
			// the runtime on graphs that peel, e.g. R-MAT peripheries.
			for _, frag := range [2][]int32{side, other} {
				c := assign[frag[0]]
				if len(frag) <= opt.SwitchThreshold {
					zeroComponentScores(g, frag, alive, scores)
					refreshScores(g, alive, frag, scores, opt, rng)
					stale[c] = 0
				} else {
					stale[c] += 2
					if stale[c] >= opt.RefreshInterval {
						zeroComponentScores(g, frag, alive, scores)
						refreshScores(g, alive, frag, scores, opt, rng)
						stale[c] = 0
					}
				}
			}
		} else {
			// No split: reuse the cached candidate ranking until
			// RefreshInterval removals have accumulated, then refresh
			// (exactly for components at or below the switch
			// threshold, sampled above it).
			stale[comm]++
			if stale[comm] >= opt.RefreshInterval {
				zeroComponentScores(g, members[comm], alive, scores)
				refreshScores(g, alive, members[comm], scores, opt, rng)
				stale[comm] = 0
			}
		}

		prevBest := dend.BestQ
		dend.Record(DendrogramEvent{
			Step:     iter,
			A:        comm,
			B:        nextComm - 1,
			EdgeID:   em,
			Clusters: clusters,
			Q:        q,
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

// bidirSplit tests whether u and v are still connected after removing
// the edge between them, by alternating BFS waves from both endpoints.
// If they are disconnected it returns the full vertex set of the side
// whose wave exhausted first (the smaller side) and connected=false.
func bidirSplit(g *graph.Graph, alive []bool, u, v int32) (side []int32, connected bool) {
	visitU := map[int32]bool{u: true}
	visitV := map[int32]bool{v: true}
	frontU := []int32{u}
	frontV := []int32{v}
	orderU := []int32{u}
	orderV := []int32{v}
	for {
		// Expand the smaller frontier.
		if len(frontU) <= len(frontV) {
			var hit bool
			frontU, orderU, hit = expandWave(g, alive, frontU, orderU, visitU, visitV)
			if hit {
				return nil, true
			}
			if len(frontU) == 0 {
				return orderU, false
			}
		} else {
			var hit bool
			frontV, orderV, hit = expandWave(g, alive, frontV, orderV, visitV, visitU)
			if hit {
				return nil, true
			}
			if len(frontV) == 0 {
				return orderV, false
			}
		}
	}
}

func expandWave(g *graph.Graph, alive []bool, front, order []int32, mine, theirs map[int32]bool) (nf, no []int32, hit bool) {
	var next []int32
	for _, v := range front {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			u := g.Adj[a]
			if theirs[u] {
				return nil, order, true
			}
			if !mine[u] {
				mine[u] = true
				next = append(next, u)
				order = append(order, u)
			}
		}
	}
	return next, order, false
}
