package partition

import (
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
	// par.Workers()); MultilevelRecursive runs its splits on one.
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
// bisection — the pmetis-style alternative to direct k-way. Each split
// is the k-way engine at two parts whose weight shares are the part
// counts of its halves, run on one worker in one workspace the whole
// recursion shares. Edge weights are ignored.
func MultilevelRecursive(g *graph.Graph, k int, opt MultilevelOptions) (Result, error) {
	if err := validateK(g, k); err != nil {
		return Result{}, err
	}
	return recursiveBisection(g, k, opt.Seed, multilevelBisect)
}

// multilevelBisect is one split of MultilevelRecursive.
func multilevelBisect(ws *Workspace, w wview, kl, kr int, seed int64) ([]int32, error) {
	ws.shares = append(ws.shares[:0], int64(kl), int64(kr))
	return ws.multilevel(w, ws.shares, seed, 1, nil), nil
}

// fromGraph views g with unit edge and vertex weights.
func fromGraph(g *graph.Graph) wview {
	return wview{off: g.Offsets, adj: g.Adj, directed: g.Directed()}
}

// bisectFunc splits w into sides 0 and 1 in the weight ratio kl:kr and
// returns each vertex's side. seed is the split's own. The sides may
// alias ws, which the whole recursion shares, so each split's sides
// are consumed before the next split starts.
type bisectFunc func(ws *Workspace, w wview, kl, kr int, seed int64) ([]int32, error)

// recursiveBisection partitions g into k parts by recursive bisection
// over induced subgraphs: a split gives k/2 parts to side 0 and the
// rest to side 1, and each side is split again until it is one part.
func recursiveBisection(g *graph.Graph, k int, seed int64, bisect bisectFunc) (Result, error) {
	n := g.NumVertices()
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	rb := &recursiveBisector{seed: sketch.EffectiveSeed(seed), part: make([]int32, n), bisect: bisect}
	rb.split(fromGraph(g), verts, 0, k)
	if rb.err != nil {
		return Result{}, rb.err
	}
	return finish(g, rb.part, k), nil
}

// recursiveBisector drives recursive bisection, writing final part ids
// into part.
type recursiveBisector struct {
	ws     Workspace
	seed   int64 // effective seed; each split derives its own
	part   []int32
	bisect bisectFunc
	err    error
}

// splitSeed derives the per-split seed: the effective user seed mixed
// with the (base, k) recursion coordinates through splitmix64 so every
// subproblem gets an independent stream.
func (rb *recursiveBisector) splitSeed(base, k int) int64 {
	return int64(splitmix64(uint64(rb.seed) ^ uint64(base)*0x9e3779b97f4a7c15 ^ uint64(k)))
}

func (rb *recursiveBisector) split(w wview, verts []int32, base, k int) {
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
	side, err := rb.bisect(&rb.ws, w, kl, kr, rb.splitSeed(base, k))
	if err != nil {
		rb.err = err
		return
	}
	wl, vl, wr, vr := inducedSplit(w, verts, side)
	rb.split(wl, vl, base, kl)
	rb.split(wr, vr, base+kl, kr)
}

// inducedSplit builds the two induced subgraphs of a bisection of the
// unit-weight view w (so unit-weight themselves) along with the
// original-vertex lists of each side.
func inducedSplit(w wview, verts, side []int32) (wview, []int32, wview, []int32) {
	n := w.n()
	newID := make([]int32, n)
	var count [2]int32
	for v, s := range side[:n] {
		newID[v] = count[s]
		count[s]++
	}
	build := func(want int32) (wview, []int32) {
		out := wview{off: make([]int64, 1, count[want]+1), directed: w.directed}
		origs := make([]int32, 0, count[want])
		for v, s := range side[:n] {
			if s != want {
				continue
			}
			for _, u := range w.adj[w.off[v]:w.off[v+1]] {
				if side[u] == want {
					out.adj = append(out.adj, newID[u])
				}
			}
			out.off = append(out.off, int64(len(out.adj)))
			origs = append(origs, verts[v])
		}
		return out, origs
	}
	w0, v0 := build(0)
	w1, v1 := build(1)
	return w0, v0, w1, v1
}
