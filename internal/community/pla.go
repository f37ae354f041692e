package community

import (
	"math/rand"
	"sort"

	"snap/internal/components"
	"snap/internal/graph"
	"snap/internal/metrics"
	"snap/internal/par"
)

// LocalMetric selects the local measure pLA uses to pick which
// neighboring cluster a seed vertex tries to join (the paper suggests
// degree or clustering coefficient).
type LocalMetric int

const (
	// MetricDegree attaches seeds toward their highest-degree neighbor.
	MetricDegree LocalMetric = iota
	// MetricClusteringCoeff attaches seeds toward the neighbor with
	// the highest local clustering coefficient.
	MetricClusteringCoeff
)

// PLAOptions configures the greedy local aggregation algorithm
// (Algorithm 3 of the paper).
type PLAOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers(). Distinct
	// connected components (after bridge removal) aggregate
	// concurrently — the paper's relaxation of global synchronization.
	Workers int
	// Metric is the local attachment measure.
	Metric LocalMetric
	// Seed makes the random seed-vertex ordering deterministic.
	Seed int64
}

// PLA is the parallel greedy local aggregation clustering algorithm
// (pLA): bridges are removed via biconnected components, the remaining
// components are aggregated concurrently using a local metric with a
// modularity acceptance test, and finally the per-component clusters
// are amalgamated across the removed bridges when that improves
// modularity.
func PLA(g *graph.Graph, opt PLAOptions) Clustering {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	mEdges := g.NumEdges()
	if n == 0 {
		return Clustering{Assign: nil, Count: 0, Q: 0}
	}
	if mEdges == 0 {
		return Singletons(g)
	}

	// Steps 1–2: remove bridges, split into components.
	bc := components.Biconnected(g)
	alive := make([]bool, mEdges)
	for i := range alive {
		alive[i] = !bc.Bridge[i]
	}
	lab := components.Connected(g, alive)
	comps := lab.Members()

	// During the concurrent per-component phase, bridge arcs are
	// masked so no worker ever reads another component's state
	// (bridges are exactly the arcs that cross components here).
	st := newPLAState(g, bc.Bridge)

	// Precompute the local metric scores once.
	var metric []float64
	if opt.Metric == MetricClusteringCoeff {
		metric = metrics.LocalClustering(g, workers)
	} else {
		metric = make([]float64, n)
		for v := 0; v < n; v++ {
			metric[v] = float64(g.Degree(int32(v)))
		}
	}

	// Step 3: aggregate each component concurrently. Components own
	// disjoint vertex (and hence cluster-id) ranges, and the contact
	// rows exclude the masked bridges, so no locking is needed across
	// them.
	par.ForGuidedN(len(comps), 1, workers, func(ci int) {
		comp := comps[ci]
		if len(comp) < 2 {
			return
		}
		rng := rand.New(rand.NewSource(opt.Seed + int64(ci)*7919))
		st.aggregate(comp, metric, rng)
	})

	// Top-level amalgamation (serial): the bridge edges become visible
	// — each one's unit weight joins the contact rows of the cluster
	// pair it connects — and cluster pairs across them merge whenever
	// modularity improves.
	st.skipEdge = nil
	ends := g.EdgeEndpoints()
	for eid, e := range ends {
		if !bc.Bridge[eid] {
			continue
		}
		cu, cv := st.assign[e.U], st.assign[e.V]
		if cu != cv {
			st.rowID[cu], st.rowW[cu] = rowAdd(st.rowID[cu], st.rowW[cu], cv, 1)
			st.rowID[cv], st.rowW[cv] = rowAdd(st.rowID[cv], st.rowW[cv], cu, 1)
		}
	}
	for eid, e := range ends {
		if !bc.Bridge[eid] {
			continue
		}
		cu, cv := st.assign[e.U], st.assign[e.V]
		if cu != cv {
			st.tryMerge(cu, cv)
		}
	}

	out := densify(g, st.assign, workers)
	// Final greedy step: individual vertices keep being added to the
	// cluster they fit best (single-vertex moves with a modularity
	// acceptance test), correcting stragglers the cluster-level merges
	// placed badly.
	return Refine(g, out, 4, opt.Seed)
}

// plaCand is an adjacent-cluster merge candidate ranked first by the
// seed's local affinity to the cluster (how many of its edges point
// there — a purely local measure), then by the local metric of its
// best contact vertex.
type plaCand struct {
	cluster  int32
	contacts int
	score    float64
}

func sortCandsByScore(cands []plaCand) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].contacts != cands[j].contacts {
			return cands[i].contacts > cands[j].contacts
		}
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].cluster < cands[j].cluster
	})
}

// plaScratch is the pooled per-aggregation scratch for gathering a
// seed vertex's adjacent-cluster candidates: an epoch-stamped position
// index replaces the per-seed map[int32]int, and the candidate slice
// is reused across seeds.
type plaScratch struct {
	pos   []int32
	stamp []uint32
	epoch uint32
	cands []plaCand
}

var plaScratchPool = par.NewPool(func() *plaScratch { return &plaScratch{} })

func (s *plaScratch) ensure(k int) {
	if len(s.stamp) >= k {
		return
	}
	s.pos = make([]int32, k)
	s.stamp = make([]uint32, k)
	s.epoch = 0
}

func (s *plaScratch) begin() {
	s.cands = s.cands[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

// plaState is the shared cluster accounting for pLA. Cluster ids live
// in vertex-id space; degsum/member/rows are indexed by cluster id.
//
// rowID[c]/rowW[c] are the cluster's CONTACT ROW: the sorted ids of
// its neighboring clusters and the live count of unmasked edges to
// each. The rows are the incremental replacement for the seed
// implementation's member-list rescans — tryMerge reads `between` with
// one binary search, and a merge folds the smaller row into the larger
// with a two-pointer union (the pMA dynamic-row idiom) plus a fix-up
// of each affected neighbor's row.
type plaState struct {
	g      *graph.Graph
	m      float64
	assign []int32
	degsum []int64
	member [][]int32
	rowID  [][]int32
	rowW   [][]int32
	// skipEdge masks arcs (by edge id) that must not be scanned; nil
	// means every arc is visible.
	skipEdge []bool
}

// newPLAState builds the singleton-cluster state with contact rows
// over the unmasked arcs. Initial rows slice one shared arena (CSR
// adjacency is sorted, so each vertex's row is a run-length fold of
// its arc list).
func newPLAState(g *graph.Graph, skipEdge []bool) *plaState {
	n := g.NumVertices()
	st := &plaState{
		g:        g,
		m:        float64(g.NumEdges()),
		assign:   make([]int32, n),
		degsum:   make([]int64, n),
		member:   make([][]int32, n),
		rowID:    make([][]int32, n),
		rowW:     make([][]int32, n),
		skipEdge: skipEdge,
	}
	arenaID := make([]int32, 0, g.NumArcs())
	arenaW := make([]int32, 0, g.NumArcs())
	for v := 0; v < n; v++ {
		st.assign[v] = int32(v)
		st.degsum[v] = int64(g.Degree(int32(v)))
		st.member[v] = []int32{int32(v)}
		start := len(arenaID)
		adj := g.Neighbors(int32(v))
		eids := g.EdgeIDs(int32(v))
		for ai, u := range adj {
			if skipEdge != nil && skipEdge[eids[ai]] {
				continue
			}
			if last := len(arenaID) - 1; last >= start && arenaID[last] == u {
				arenaW[last]++
				continue
			}
			arenaID = append(arenaID, u)
			arenaW = append(arenaW, 1)
		}
		st.rowID[v] = arenaID[start:len(arenaID):len(arenaID)]
		st.rowW[v] = arenaW[start:len(arenaW):len(arenaW)]
	}
	return st
}

// rowFind returns the index of x in the sorted ids, or -1.
func rowFind(ids []int32, x int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == x {
		return lo
	}
	return -1
}

// rowAdd accumulates weight w onto entry x, inserting it in sorted
// position when absent.
func rowAdd(ids []int32, wts []int32, x int32, w int32) ([]int32, []int32) {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == x {
		wts[lo] += w
		return ids, wts
	}
	ids = append(ids, 0)
	wts = append(wts, 0)
	copy(ids[lo+1:], ids[lo:])
	copy(wts[lo+1:], wts[lo:])
	ids[lo] = x
	wts[lo] = w
	return ids, wts
}

// rowRemove deletes entry x, returning its weight (0 if absent).
func rowRemove(ids []int32, wts []int32, x int32) ([]int32, []int32, int32) {
	i := rowFind(ids, x)
	if i < 0 {
		return ids, wts, 0
	}
	w := wts[i]
	copy(ids[i:], ids[i+1:])
	copy(wts[i:], wts[i+1:])
	return ids[:len(ids)-1], wts[:len(wts)-1], w
}

// plaPasses bounds the aggregation sweeps per component; each visits
// every vertex once in random order.
const plaPasses = 8

// aggregate runs random-seed greedy aggregation passes over one
// component until a pass makes no merge or plaPasses are spent.
func (st *plaState) aggregate(comp []int32, metric []float64, rng *rand.Rand) {
	order := append([]int32(nil), comp...)
	sc := plaScratchPool.Get()
	sc.ensure(st.g.NumVertices())
	for pass := 0; pass < plaPasses; pass++ {
		rng.Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		merges := 0
		for _, v := range order {
			// Step 6: v is the random seed. Rank the adjacent
			// clusters by the local metric of their best contact
			// vertex, and greedily attempt merges in that order until
			// one passes the modularity test (steps 7–8).
			cv := st.assign[v]
			sc.begin()
			adj := st.g.Neighbors(v)
			eids := st.g.EdgeIDs(v)
			for ai, u := range adj {
				if st.skipEdge != nil && st.skipEdge[eids[ai]] {
					continue
				}
				cu := st.assign[u]
				if cu == cv {
					continue
				}
				if sc.stamp[cu] == sc.epoch {
					c := &sc.cands[sc.pos[cu]]
					c.contacts++
					if metric[u] > c.score {
						c.score = metric[u]
					}
					continue
				}
				sc.stamp[cu] = sc.epoch
				sc.pos[cu] = int32(len(sc.cands))
				sc.cands = append(sc.cands, plaCand{cluster: cu, contacts: 1, score: metric[u]})
			}
			if len(sc.cands) == 0 {
				continue
			}
			sortCandsByScore(sc.cands)
			tries := len(sc.cands)
			if tries > 4 {
				tries = 4
			}
			for i := 0; i < tries; i++ {
				if st.tryMerge(cv, sc.cands[i].cluster) {
					merges++
					break
				}
			}
		}
		if merges == 0 {
			break
		}
	}
	plaScratchPool.Put(sc)
}

// tryMerge merges clusters c and d when the modularity delta
// m_cd/m − 2 a_c a_d is positive, reporting whether it merged. The
// inter-cluster edge count comes straight from the maintained contact
// rows — one binary search instead of the seed engine's rescan of the
// smaller member list.
func (st *plaState) tryMerge(c, d int32) bool {
	if c == d {
		return false
	}
	small, other := c, d
	if len(st.member[small]) > len(st.member[other]) {
		small, other = other, small
	}
	var between int64
	if i := rowFind(st.rowID[small], other); i >= 0 {
		between = int64(st.rowW[small][i])
	}
	twoM := 2 * st.m
	dq := float64(between)/st.m - 2*(float64(st.degsum[c])/twoM)*(float64(st.degsum[d])/twoM)
	if dq <= 0 {
		return false
	}
	st.fold(small, other)
	return true
}

// fold merges cluster s into cluster o: members, degree sums, and the
// contact rows. Every neighbor e of s re-points its s entry at o, and
// the surviving row of o is the sorted two-pointer union of both rows
// with the mutual pair (now intra) dropped.
func (st *plaState) fold(s, o int32) {
	sID, sW := st.rowID[s], st.rowW[s]
	for _, e := range sID {
		if e == o {
			continue
		}
		var w int32
		st.rowID[e], st.rowW[e], w = rowRemove(st.rowID[e], st.rowW[e], s)
		st.rowID[e], st.rowW[e] = rowAdd(st.rowID[e], st.rowW[e], o, w)
	}
	oID, oW := st.rowID[o], st.rowW[o]
	mergedID := make([]int32, 0, len(oID)+len(sID))
	mergedW := make([]int32, 0, len(oID)+len(sID))
	i, j := 0, 0
	for i < len(oID) || j < len(sID) {
		switch {
		case j == len(sID) || (i < len(oID) && oID[i] < sID[j]):
			if oID[i] != s {
				mergedID = append(mergedID, oID[i])
				mergedW = append(mergedW, oW[i])
			}
			i++
		case i == len(oID) || sID[j] < oID[i]:
			if sID[j] != o {
				mergedID = append(mergedID, sID[j])
				mergedW = append(mergedW, sW[j])
			}
			j++
		default: // common neighbor
			mergedID = append(mergedID, oID[i])
			mergedW = append(mergedW, oW[i]+sW[j])
			i++
			j++
		}
	}
	st.rowID[o], st.rowW[o] = mergedID, mergedW
	st.rowID[s], st.rowW[s] = nil, nil

	for _, v := range st.member[s] {
		st.assign[v] = o
	}
	st.member[o] = append(st.member[o], st.member[s]...)
	st.member[s] = nil
	st.degsum[o] += st.degsum[s]
	st.degsum[s] = 0
}
