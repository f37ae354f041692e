package partition

import (
	"math/rand"

	"snap/internal/graph"
	"snap/internal/sketch"
)

// MultilevelOptions configures the Metis-style partitioners.
type MultilevelOptions struct {
	// Seed drives matching and seeding randomness; 0 means the pinned
	// repo default (sketch.EffectiveSeed). The partition is the same
	// for a given seed at every worker count.
	Seed int64
	// Workers caps the worker count for the k-way engine (default
	// par.Workers()).
	Workers int
	// Stats, when non-nil, receives the k-way engine's per-level
	// record of the run (MultilevelKWay and Workspace.KWay only). It
	// changes nothing about the result.
	Stats *Stats
}

// The multilevel schemes' fixed parameters: coarsening stops near
// k·coarsenTarget vertices, parts may weigh up to 1+imbalance times the
// ideal, and each level runs at most refinePasses boundary-refinement
// sweeps.
const (
	coarsenTarget = 30
	imbalance     = 0.05
	refinePasses  = 8
)

// MultilevelKWay partitions g into k parts with the multilevel k-way
// scheme (the pmetis/kmetis analogue): parallel heavy-edge handshake
// matching with dedupe-and-transpose contraction, greedy growing on the
// coarsest graph, then projection with batch-synchronous boundary
// refinement at every level. The result is bit-identical at every
// worker count. Each call runs in its own workspace, which it drops on
// return (Result.Part is that workspace's level-0 part array), so no
// scratch outlives the call; callers that partition repeatedly should
// hold a Workspace and call its KWay method.
func MultilevelKWay(g *graph.Graph, k int, opt MultilevelOptions) (Result, error) {
	return new(Workspace).KWay(g, k, opt)
}

// MultilevelRecursive partitions g into k parts (k a power of two is
// ideal; other k are split near-evenly) by recursive multilevel
// bisection — the pmetis-style alternative to direct k-way.
func MultilevelRecursive(g *graph.Graph, k int, opt MultilevelOptions) (Result, error) {
	if err := validateK(g, k); err != nil {
		return Result{}, err
	}
	part := make([]int32, g.NumVertices())
	w := fromGraph(g)
	verts := make([]int32, g.NumVertices())
	for i := range verts {
		verts[i] = int32(i)
	}
	rb := &recursiveBisector{
		seed:   sketch.EffectiveSeed(opt.Seed),
		part:   part,
		bisect: multilevelBisect,
	}
	rb.split(w, verts, 0, k)
	return finish(g, part, k), nil
}

// recursiveBisector drives recursive bisection over induced weighted
// subgraphs, writing final part ids into part.
type recursiveBisector struct {
	seed int64 // effective seed; each split derives its own stream
	part []int32
	// bisect computes a 2-way split of w with the given target weight
	// fraction for side 0; returns side ids (0/1) per wgraph vertex.
	bisect func(w *wgraph, frac float64, rng *rand.Rand) ([]int32, error)
	err    error
}

// splitSeed derives the per-split seed: the effective user seed mixed
// with the (base, k) recursion coordinates through splitmix64 so every
// subproblem gets an independent stream.
func (rb *recursiveBisector) splitSeed(base, k int) int64 {
	return int64(splitmix64(uint64(rb.seed) ^ uint64(base)*0x9e3779b97f4a7c15 ^ uint64(k)))
}

func (rb *recursiveBisector) split(w *wgraph, verts []int32, base, k int) {
	if rb.err != nil {
		return
	}
	if k <= 1 {
		for _, v := range verts {
			rb.part[v] = int32(base)
		}
		return
	}
	kl := k / 2
	kr := k - kl
	frac := float64(kl) / float64(k)
	rng := sketch.NewRNG(rb.splitSeed(base, k))
	side, err := rb.bisect(w, frac, rng)
	if err != nil {
		rb.err = err
		return
	}
	wl, vl, wr, vr := inducedSplit(w, verts, side)
	rb.split(wl, vl, base, kl)
	rb.split(wr, vr, base+kl, kr)
}

// inducedSplit builds the two induced weighted subgraphs of a bisection
// along with the original-vertex lists of each side.
func inducedSplit(w *wgraph, verts []int32, side []int32) (*wgraph, []int32, *wgraph, []int32) {
	n := w.n()
	newID := make([]int32, n)
	var n0, n1 int32
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			newID[v] = n0
			n0++
		} else {
			newID[v] = n1
			n1++
		}
	}
	build := func(want int32, count int32) (*wgraph, []int32) {
		out := &wgraph{vw: make([]int64, count), offsets: make([]int64, count+1), directed: w.directed}
		origs := make([]int32, count)
		// Count arcs.
		for v := 0; v < n; v++ {
			if side[v] != want {
				continue
			}
			var deg int64
			for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
				if side[w.adj[a]] == want {
					deg++
				}
			}
			out.offsets[newID[v]+1] = deg
		}
		for i := int32(1); i <= count; i++ {
			out.offsets[i] += out.offsets[i-1]
		}
		out.adj = make([]int32, out.offsets[count])
		out.ew = make([]int64, out.offsets[count])
		cursor := make([]int64, count)
		copy(cursor, out.offsets[:count])
		for v := 0; v < n; v++ {
			if side[v] != want {
				continue
			}
			nv := newID[v]
			out.vw[nv] = w.vw[v]
			origs[nv] = verts[v]
			for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
				u := w.adj[a]
				if side[u] != want {
					continue
				}
				c := cursor[nv]
				out.adj[c] = newID[u]
				out.ew[c] = w.ew[a]
				cursor[nv] = c + 1
			}
		}
		return out, origs
	}
	w0, v0 := build(0, n0)
	w1, v1 := build(1, n1)
	return w0, v0, w1, v1
}

// multilevelBisect bisects a weighted graph with the full multilevel
// pipeline, aiming for weight fraction frac on side 0.
func multilevelBisect(w *wgraph, frac float64, rng *rand.Rand) ([]int32, error) {
	levels, maps := coarsenHierarchy(w, 2*coarsenTarget, int64(rng.Uint64()))
	coarsest := levels[len(levels)-1]
	side := growBisection(coarsest, frac, rng)
	refineBisection(coarsest, side, frac, rng)
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		coarseOf := maps[li]
		fineSide := make([]int32, fine.n())
		for v := range fineSide {
			fineSide[v] = side[coarseOf[v]]
		}
		side = fineSide
		refineBisection(fine, side, frac, rng)
	}
	return side, nil
}

// coarsenHierarchy runs the workspace coarsener over a standalone
// weighted graph and copies the hierarchy out: levels (finest first,
// levels[0] == w) and the fine-to-coarse maps (maps[i] maps level i to
// level i+1 ids). Used by the bisection and spectral paths, which own
// their levels across recursive splits. The workspace is the call's
// own, so the levels take over its per-level buffers (each level has
// its own) and the rest of its scratch is dropped on return.
func coarsenHierarchy(w *wgraph, target int, seed int64) (levels []*wgraph, maps [][]int32) {
	ws := new(Workspace)
	ws.primeLevel0(wview{off: w.offsets, adj: w.adj, ew: w.ew, vw: w.vw, directed: w.directed}, nil)
	nl := ws.coarsenToSize(target, seed, 1)
	levels = make([]*wgraph, nl)
	levels[0] = w
	maps = make([][]int32, nl-1)
	for li := 1; li < nl; li++ {
		lv := &ws.lv[li]
		levels[li] = &wgraph{offsets: lv.off, adj: lv.adj, ew: lv.ew, vw: lv.vw, directed: w.directed}
		maps[li-1] = ws.lv[li-1].coarseOf
	}
	return levels, maps
}
