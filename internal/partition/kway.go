package partition

import (
	"snap/internal/graph"
	"snap/internal/par"
	"snap/internal/sketch"
)

// The k-way engine: greedy graph growing for the coarsest partition,
// then batch-synchronous boundary refinement at every level on the
// PR-5 move-engine discipline — fixed-size vertex batches (width
// independent of the worker count), workers proposing moves against
// the frozen batch-start state, and a serial apply pass that
// recomputes every gain against the live state before committing.
// Candidate sets depend only on frozen state and apply order is the
// batch order (contiguous par chunks concatenated in worker order), so
// partitions are bit-identical at EVERY worker count; every applied
// move strictly decreases the (integer) edge cut, so passes terminate.

// kwayBatch is the propose/apply batch width. Fixed — NOT derived from
// the worker count — so batch boundaries, and therefore the result,
// are identical no matter how many workers propose.
const kwayBatch = 4096

// KWay partitions g into k parts with the multilevel k-way scheme
// inside the workspace. The returned Result.Part aliases workspace
// memory (valid until the next call on ws).
func (ws *Workspace) KWay(g *graph.Graph, k int, opt MultilevelOptions) (Result, error) {
	if err := validateK(g, k); err != nil {
		return Result{}, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	seed := sketch.EffectiveSeed(opt.Seed)
	ws.seedRNG(seed)

	root := wview{off: g.Offsets, adj: g.Adj, directed: g.Directed()}
	if g.Weighted() {
		// The objective is the cut resultFor reports: g.W truncated
		// per arc, as cutRange does.
		ws.w0 = scratch(ws.w0, len(g.W))
		for a, w := range g.W {
			ws.w0[a] = int64(w)
		}
		root.ew = ws.w0
	}
	ws.primeLevel0(root, opt.Stats)
	levels := ws.coarsenToSize(k*coarsenTarget, seed, workers)
	if ws.stats != nil {
		ws.stats.Levels = levels
	}

	total := ws.lv[0].view.totalVW()
	ideal := float64(total) / float64(k)
	maxW := int64(ideal * (1 + imbalance))
	minW := int64(ideal * (1 - imbalance))

	coarsest := &ws.lv[levels-1]
	coarsest.part = scratch(coarsest.part, coarsest.view.n())
	ws.greedyGrow(coarsest.view, coarsest.part, k, total)
	ws.ensureWorkers(workers, k)
	ws.refineLevel(levels-1, k, maxW, minW, workers)

	// Uncoarsen: project and refine.
	for li := levels - 2; li >= 0; li-- {
		fine := &ws.lv[li]
		n := fine.view.n()
		fine.part = scratch(fine.part, n)
		coarsePart := ws.lv[li+1].part
		coarseOf := fine.coarseOf
		finePart := fine.part
		if workers > 1 {
			par.ForChunkedN(n, workers, func(_, lo, hi int) {
				projectRange(finePart, coarsePart, coarseOf, lo, hi)
			})
		} else {
			projectRange(finePart, coarsePart, coarseOf, 0, n)
		}
		ws.refineLevel(li, k, maxW, minW, workers)
	}
	ws.stats = nil // a held workspace must not keep the caller's record alive
	return ws.resultFor(g, ws.lv[0].part, k, workers), nil
}

func projectRange(fine, coarse, coarseOf []int32, lo, hi int) {
	for x := lo; x < hi; x++ {
		fine[x] = coarse[coarseOf[x]]
	}
}

// greedyGrow produces the initial k-way partition of the coarsest
// graph by greedy graph growing: each part grows a BFS region from a
// random unassigned seed until it reaches its (adaptive) share of the
// remaining weight; leftovers join the last part. Seeds are drawn in
// O(1) from a maintained unassigned list (swap-remove on assignment) —
// the seed engine's 64-try rejection sampling silently degraded to
// first-unassigned scan order on nearly-full graphs.
func (ws *Workspace) greedyGrow(v wview, part []int32, k int, total int64) {
	n := v.n()
	fill32(part[:n], -1)
	ws.ulist = scratch(ws.ulist, n)
	ws.upos = scratch(ws.upos, n)
	for i := range ws.ulist[:n] {
		ws.ulist[i] = int32(i)
		ws.upos[i] = int32(i)
	}
	ulen := n
	ws.weights = scratch(ws.weights, k)
	weights := ws.weights
	clear(weights[:k])
	ws.queue = scratch(ws.queue, n)

	var assignedW int64
	for p := 0; p < k-1 && ulen > 0; p++ {
		// Adaptive target: divide the remaining weight over the
		// remaining parts so early overshoot cannot starve the last
		// parts into (near-)emptiness.
		ideal := float64(total-assignedW) / float64(k-p)
		// Re-seed whenever the BFS frontier exhausts before the part
		// reaches its target — disconnected or hub-capped regions
		// otherwise starve the part and dump their weight on part k-1,
		// leaving a rebalance bill that dwarfs the partitioning itself.
		for float64(weights[p]) < ideal && ulen > 0 {
			seedV := ws.ulist[int(ws.rngNext()%uint64(ulen))]
			ulen = ws.assignVertex(v, part, seedV, int32(p), ulen)
			queue := ws.queue[:0]
			queue = append(queue, seedV)
			for head := 0; head < len(queue) && float64(weights[p]) < ideal; head++ {
				x := queue[head]
				for a := v.off[x]; a < v.off[x+1]; a++ {
					u := v.adj[a]
					if part[u] != -1 {
						continue
					}
					ulen = ws.assignVertex(v, part, u, int32(p), ulen)
					queue = append(queue, u)
					if float64(weights[p]) >= ideal {
						break
					}
				}
			}
		}
		assignedW += weights[p]
	}
	// Everything left goes to the last part.
	for i := 0; i < ulen; i++ {
		x := ws.ulist[i]
		part[x] = int32(k - 1)
		weights[k-1] += v.vweight(x)
	}
}

// assignVertex places x in part p, swap-removes it from the unassigned
// list, and returns the shrunk list length.
func (ws *Workspace) assignVertex(v wview, part []int32, x, p int32, ulen int) int {
	part[x] = p
	ws.weights[p] += v.vweight(x)
	i := ws.upos[x]
	last := ws.ulist[ulen-1]
	ws.ulist[i] = last
	ws.upos[last] = i
	return ulen - 1
}

// refineLevel runs batch-synchronous boundary refinement passes over
// level li, then enforces the balance cap.
func (ws *Workspace) refineLevel(li, k int, maxW, minW int64, workers int) {
	v, part := ws.lv[li].view, ws.lv[li].part
	n := v.n()
	weights := ws.weights[:k]
	clear(weights)
	for x := 0; x < n; x++ {
		weights[part[x]] += v.vweight(int32(x))
	}
	ws.order = scratch(ws.order, n)
	order := ws.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	ws.clean = scratch(ws.clean, n)
	clear(ws.clean)
	ls := ws.levelStats(li)
	if ls != nil {
		ls.N, ls.Arcs = int64(n), int64(len(v.adj))
	}
	for pass := 0; pass < refinePasses; pass++ {
		ws.shuffleOrder(order)
		moves, evaluated := ws.runKWayPass(v, part, maxW, minW, workers)
		if ls != nil {
			ls.Passes++
			ls.Evaluated += evaluated
			ls.Moves += int64(moves)
		}
		if moves == 0 {
			break
		}
	}
	ws.enforceBalance(v, part, k, maxW)
}

// bestKMove gathers x's per-part incident edge weights into sc and
// returns the best cut-gain move target with its gain. Returns the
// current part when no strictly-improving feasible move exists. Ties
// on gain break toward the lighter part, then the smaller part id, so
// the answer is independent of the gather (touched-list) order.
//
// pulled reports whether any other part holds more of x's edge weight
// than its own, the weight window ignored. When it is false no weight
// change can give x a move: only x or a neighbor changing part can.
// A vertex the minW floor stopped before its gather reports true.
//
// Reads shared state only — safe to run concurrently with other
// bestKMove calls.
func (ws *Workspace) bestKMove(sc *partScatter, v wview, part []int32, x int32, maxW, minW int64) (dest int32, gain int64, pulled bool) {
	pv := part[x]
	vwx := v.vweight(x)
	if ws.weights[pv]-vwx < minW {
		return pv, 0, true
	}
	sc.begin()
	lo, hi := v.off[x], v.off[x+1]
	if v.ew == nil {
		for a := lo; a < hi; a++ {
			sc.add(part[v.adj[a]], 1)
		}
	} else {
		for a := lo; a < hi; a++ {
			sc.add(part[v.adj[a]], v.ew[a])
		}
	}
	internal := sc.get(pv)
	bestP := pv
	var bestGain int64
	for _, p := range sc.touched {
		gain := sc.wsum[p] - internal
		if p == pv || gain <= 0 {
			continue
		}
		pulled = true
		if ws.weights[p]+vwx > maxW {
			continue
		}
		if gain > bestGain ||
			(gain == bestGain &&
				(ws.weights[p] < ws.weights[bestP] ||
					(ws.weights[p] == ws.weights[bestP] && p < bestP))) {
			bestGain = gain
			bestP = p
		}
	}
	return bestP, bestGain, pulled
}

// runKWayPass is one refinement pass over ws.order: every batch is
// proposed against the frozen batch-start state — across the workers in
// contiguous chunks, per-worker scatters and candidate buffers, no
// shared writes — and then re-validated and applied serially in batch
// order. Concatenating the per-worker candidate buffers in worker order
// IS the batch order, and the candidate set depends only on the frozen
// state, so the applied move sequence is identical for every worker
// count. The lone-worker arm calls the same two functions without a
// closure, so nothing escapes and a warm pass is alloc-free. Returns
// the moves applied and the vertices evaluated.
func (ws *Workspace) runKWayPass(v wview, part []int32, maxW, minW int64, workers int) (moves int, evaluated int64) {
	n := v.n()
	clear(ws.partial[:workers])
	for base := 0; base < n; base += kwayBatch {
		end := min(base+kwayBatch, n)
		used := 1
		if workers > 1 {
			batch := ws.order[base:end]
			par.ForChunkedN(len(batch), workers, func(wk, lo, hi int) {
				ws.proposeMoves(wk, v, part, batch[lo:hi], maxW, minW)
			})
			// ForChunkedN clamps to len(batch) workers on short batches;
			// the buffers past that hold an earlier batch's candidates.
			used = min(workers, len(batch))
		} else {
			ws.proposeMoves(0, v, part, ws.order[base:end], maxW, minW)
		}
		for wk := 0; wk < used; wk++ {
			moves += ws.applyMoves(v, part, ws.cand[wk], maxW, minW)
		}
	}
	for _, e := range ws.partial[:workers] {
		evaluated += e
	}
	return moves, evaluated
}

// proposeMoves fills worker wk's candidate buffer with the vertices of
// batch that have a strictly improving feasible move in the frozen
// state, skipping the ones marked clean.
//
// The active-set rule: a vertex that no part pulls on (bestKMove's
// pulled == false) has no move, and cannot get one from a change of
// part weights — only from its own or a neighbor's change of part. It
// is marked clean and skipped until applyMoves, which dirties a mover's
// neighbors, says otherwise. Evaluating a clean vertex would find gain
// 0 and touch nothing, so skipping it leaves the candidate sets, the
// applied moves and the RNG stream exactly as they were. Vertices held
// back by the weight window or the minW floor stay dirty: weights move
// with every applied move. On a directed view a mover cannot name the
// vertices that read its part (its in-neighbors), so nothing is marked.
func (ws *Workspace) proposeMoves(wk int, v wview, part []int32, batch []int32, maxW, minW int64) {
	sc := ws.psc[wk]
	cand := ws.cand[wk][:0]
	clean := ws.clean
	var evaluated int64
	for _, x := range batch {
		if clean[x] {
			continue
		}
		evaluated++
		d, gain, pulled := ws.bestKMove(sc, v, part, x, maxW, minW)
		if gain > 0 && d != part[x] {
			cand = append(cand, x)
		} else if !pulled && !v.directed {
			clean[x] = true
		}
	}
	ws.cand[wk] = cand
	ws.partial[wk] += evaluated
}

// applyMoves re-evaluates each candidate against the live state and
// commits the moves that still strictly decrease the cut, marking each
// mover's neighbors dirty. Returns the number applied.
func (ws *Workspace) applyMoves(v wview, part []int32, cand []int32, maxW, minW int64) int {
	moves := 0
	for _, x := range cand {
		d, gain, _ := ws.bestKMove(ws.psc[0], v, part, x, maxW, minW)
		if gain <= 0 || d == part[x] {
			continue
		}
		vwx := v.vweight(x)
		ws.weights[part[x]] -= vwx
		ws.weights[d] += vwx
		part[x] = d
		for _, u := range v.adj[v.off[x]:v.off[x+1]] {
			ws.clean[u] = false
		}
		moves++
	}
	return moves
}

// enforceBalance fixes any part exceeding the weight cap by shedding
// its cheapest boundary vertices into the lightest adjacent part (or,
// failing that, force-moving to the globally lightest part). This
// sacrifices cut for balance, which is the contract of the pass. It is
// a serial no-op when every part is already inside the cap — the
// common case, since refinement moves respect the window.
func (ws *Workspace) enforceBalance(v wview, part []int32, k int, maxW int64) {
	n := v.n()
	weights := ws.weights[:k]
	sc := ws.psc[0]
	for p := int32(0); int(p) < k; p++ {
		guard := 0
		for weights[p] > maxW && guard < n {
			guard++
			// Find the boundary vertex of p with the best (least bad)
			// move gain.
			bestV := int32(-1)
			bestP := int32(-1)
			var bestGain int64 = -1 << 62
			for x := int32(0); int(x) < n; x++ {
				if part[x] != p {
					continue
				}
				var internal int64
				extBest := int64(-1 << 62)
				extPart := int32(-1)
				sc.begin()
				for a := v.off[x]; a < v.off[x+1]; a++ {
					w := int64(1)
					if v.ew != nil {
						w = v.ew[a]
					}
					if q := part[v.adj[a]]; q == p {
						internal += w
					} else {
						sc.add(q, w)
					}
				}
				vwx := v.vweight(x)
				for _, q := range sc.touched {
					if weights[q]+vwx > maxW {
						continue
					}
					ext := sc.wsum[q]
					if ext > extBest ||
						(ext == extBest && (weights[q] < weights[extPart] ||
							(weights[q] == weights[extPart] && q < extPart))) {
						extBest = ext
						extPart = q
					}
				}
				if extPart == -1 {
					continue
				}
				if g := extBest - internal; g > bestGain {
					bestGain = g
					bestV = x
					bestP = extPart
				}
			}
			if bestV == -1 {
				// No adjacent feasible destination: force-move the
				// first boundary vertex of p to the globally lightest
				// part.
				lightest := int32(0)
				for q := int32(1); int(q) < k; q++ {
					if weights[q] < weights[lightest] {
						lightest = q
					}
				}
				if lightest == p {
					break
				}
				for x := int32(0); int(x) < n; x++ {
					if part[x] == p {
						bestV = x
						break
					}
				}
				if bestV == -1 {
					break
				}
				bestP = lightest
			}
			vwx := v.vweight(bestV)
			weights[p] -= vwx
			weights[bestP] += vwx
			part[bestV] = bestP
		}
	}
}

// resultFor assembles a Result, recomputing the cut CSR-direct with
// per-worker integer partials (deterministic at any worker count) —
// each undirected edge is counted once per arc direction and halved,
// matching EdgeCut's per-edge int64 truncation exactly.
func (ws *Workspace) resultFor(g *graph.Graph, part []int32, k, workers int) Result {
	n := g.NumVertices()
	var cut int64
	if workers > 1 {
		ws.partial = scratch(ws.partial, workers)
		clear(ws.partial[:workers])
		par.ForChunkedN(n, workers, func(w, lo, hi int) {
			ws.partial[w] = cutRange(g, part, lo, hi)
		})
		for _, p := range ws.partial[:workers] {
			cut += p
		}
	} else {
		cut = cutRange(g, part, 0, n)
	}
	if !g.Directed() {
		cut /= 2
	}
	// Balance: vertex counts per part against the ideal.
	weights := ws.weights[:k]
	clear(weights)
	for _, p := range part {
		weights[p]++
	}
	var mx int64
	for _, s := range weights {
		if s > mx {
			mx = s
		}
	}
	bal := 1.0
	if n > 0 {
		bal = float64(mx) / (float64(n) / float64(k))
	}
	return Result{Part: part, K: k, EdgeCut: cut, Balance: bal}
}

func cutRange(g *graph.Graph, part []int32, lo, hi int) int64 {
	var cut int64
	if g.W == nil {
		for x := lo; x < hi; x++ {
			px := part[x]
			for a := g.Offsets[x]; a < g.Offsets[x+1]; a++ {
				if part[g.Adj[a]] != px {
					cut++
				}
			}
		}
	} else {
		for x := lo; x < hi; x++ {
			px := part[x]
			for a := g.Offsets[x]; a < g.Offsets[x+1]; a++ {
				if part[g.Adj[a]] != px {
					cut += int64(g.W[a])
				}
			}
		}
	}
	return cut
}
