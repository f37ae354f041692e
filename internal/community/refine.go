package community

import (
	"math"
	"math/rand"
	"sort"

	"snap/internal/graph"
	"snap/internal/par"
)

// moveState is the single-move bookkeeping Anneal's Metropolis walk
// uses: community degree sums with a free-list of empty community ids
// so a vertex can detach into a fresh singleton community (without
// this, local moving can never increase the community count and misses
// optima such as karate's 4-community Q = 0.4198 partition). The
// batch-synchronous engine in move.go keeps the same accounting for
// Louvain and Refine.
type moveState struct {
	g      *graph.Graph
	m      float64
	assign []int32
	degsum []float64
	free   []int32
}

func newMoveState(g *graph.Graph, c Clustering) *moveState {
	n := g.NumVertices()
	st := &moveState{
		g:      g,
		m:      float64(g.NumEdges()),
		assign: append([]int32(nil), c.Assign...),
		degsum: make([]float64, n+c.Count+1),
	}
	for v := 0; v < n; v++ {
		st.degsum[st.assign[v]] += float64(g.Degree(int32(v)))
	}
	for id := int32(c.Count); int(id) < len(st.degsum); id++ {
		st.free = append(st.free, id)
	}
	return st
}

// gain computes the modularity change of moving v from its community
// to community d, where ld is the number of v's edges into d and lcv
// the number into its own community (excluding v).
func (st *moveState) gain(v int32, d int32, ld, lcv float64) float64 {
	kv := float64(st.g.Degree(v))
	cv := st.assign[v]
	return (ld-lcv)/st.m - kv*(st.degsum[d]-(st.degsum[cv]-kv))/(2*st.m*st.m)
}

// detachGain computes the modularity change of moving v into a fresh
// empty community.
func (st *moveState) detachGain(v int32, lcv float64) float64 {
	kv := float64(st.g.Degree(v))
	cv := st.assign[v]
	return -lcv/st.m + kv*(st.degsum[cv]-kv)/(2*st.m*st.m)
}

// apply moves v to community d, managing degree sums and the free list.
func (st *moveState) apply(v, d int32) {
	kv := float64(st.g.Degree(v))
	cv := st.assign[v]
	st.degsum[cv] -= kv
	if st.degsum[cv] == 0 {
		st.free = append(st.free, cv)
	}
	st.degsum[d] += kv
	st.assign[v] = d
}

// freshCommunity pops an empty community id.
func (st *moveState) freshCommunity() int32 {
	id := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	return id
}

// Refine improves a clustering by greedy single-vertex moves
// (Kernighan–Lin style local moving): each pass visits the vertices in
// pseudo-random order and applies the best positive-gain move — either
// into a neighboring community or detaching into a fresh singleton. It
// never decreases Q. This is the post-pass used to approximate the
// "best known" comparator column of the paper's Table 2 on small
// instances. The work runs on the batch-synchronous engine (move.go)
// in a workspace of the call's own: for a fixed seed the result is
// identical at every worker count, and holding a MoveWorkspace across
// calls makes repeated refinement allocation-free. The result never
// aliases c.
func Refine(g *graph.Graph, c Clustering, maxPasses int, seed int64) Clustering {
	out := new(MoveWorkspace).Refine(g, c, maxPasses, seed, par.Workers())
	out.Assign = append([]int32(nil), out.Assign...)
	return out
}

// Anneal estimates a near-optimal modularity on SMALL graphs with
// simulated annealing over single-vertex moves (including detach
// moves), seeded by pMA+Refine. It is the stand-in for the paper's
// exhaustive/extremal-optimization "best known" column and is only
// intended for n up to a few thousand.
func Anneal(g *graph.Graph, steps int, seed int64) Clustering {
	start, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	start = Refine(g, start, 16, seed)
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 || steps <= 0 {
		return start
	}
	rng := rand.New(rand.NewSource(seed))
	st := newMoveState(g, start)
	bestAssign := append([]int32(nil), st.assign...)
	cur := start.Q
	best := start.Q
	temp := 0.05
	// Neighbor-community accumulation via the dense epoch-stamped
	// scatter (one gather per step, no map).
	links := &moveScatter{}
	links.ensure(len(st.degsum))
	var cands []int32
	for s := 0; s < steps; s++ {
		v := int32(rng.Intn(n))
		if g.Degree(v) == 0 {
			continue
		}
		cv := st.assign[v]
		links.begin()
		for _, u := range g.Neighbors(v) {
			links.add(st.assign[u], 1)
		}
		lcv := links.get(cv)
		// Candidate: random neighboring community, or a detach move.
		var gn float64
		var target int32
		detach := rng.Intn(8) == 0
		if !detach {
			cands = cands[:0]
			for _, d := range links.touched {
				if d != cv {
					cands = append(cands, d)
				}
			}
			if len(cands) == 0 {
				continue
			}
			// Sort so the RNG draw matches the former map-based walk
			// (which sorted to neutralize map iteration order).
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			target = cands[rng.Intn(len(cands))]
			gn = st.gain(v, target, links.get(target), lcv)
		} else {
			gn = st.detachGain(v, lcv)
		}
		t := temp * (1 - float64(s)/float64(steps))
		if gn > 0 || (t > 0 && rng.Float64() < math.Exp(gn/t)) {
			if detach {
				target = st.freshCommunity()
			}
			st.apply(v, target)
			cur += gn
			if cur > best {
				best = cur
				copy(bestAssign, st.assign)
			}
		}
	}
	out := densify(g, bestAssign, 0)
	out = Refine(g, out, 16, seed+1)
	// Keep whichever of {seed clustering, annealed} is better; the
	// Metropolis walk must never lose quality versus its start.
	if out.Q < start.Q {
		return start
	}
	return out
}
