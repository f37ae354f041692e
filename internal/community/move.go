package community

import (
	"snap/internal/graph"
	"snap/internal/par"
)

// This file is the shared local-moving engine behind Louvain, Refine,
// and (indirectly, via Refine's final polish pass) pLA. The previous
// implementations each kept a map[int32]float64 of neighbor-community
// edge weights per visited vertex; on power-law graphs that map is the
// entire inner loop — every probe hashes, every pass re-allocates
// buckets, and the GC churns on millions of tiny maps. The engine
// replaces all of them with one reusable, epoch-stamped dense scatter:
//
//   - moveScatter accumulates "weight from v into community c" in a
//     dense float64 array guarded by a stamp array. A gather costs
//     O(deg(v)) array writes, the reset costs a single epoch bump, and
//     after warm-up the whole pass allocates nothing.
//   - moveBatch-synchronous parallelism: each pass is cut into fixed
//     batches (width independent of the worker count). Workers propose
//     moves against the frozen batch-start state; proposals are then
//     re-validated and applied serially in batch order. Results are
//     identical for EVERY worker count (including 1), each applied
//     move strictly increases Q, and the propose phase is race-free
//     because it only reads shared state.
//   - an active set: after the first pass a pass examines only the
//     vertices whose neighbourhood changed, and a level ends with a
//     full pass that moves nothing, or at the pass cap (localMove).
//   - the Louvain level hierarchy lives in two ping-ponged CSR buffers
//     inside the workspace, so contraction does not call graph.Build
//     and a warm workspace runs the full multilevel heuristic with
//     zero steady-state allocations.
//
// Determinism contract: a fixed seed yields an identical partition for
// every worker count. The shuffle is the same LCG pseudo-shuffle the
// seed's weightedLocalMove used (rand.Shuffle cannot be replicated
// without allocating closures), the candidate set of a batch depends
// only on the frozen state, and the serial apply order is the batch
// order. All edge weights are integer-valued edge multiplicities, so
// every float64 sum here is exact and order-independent; equal-gain
// ties break toward the smallest community id.

// moveBatch is the propose/apply batch width of a local-moving pass.
// It is a fixed constant — NOT derived from the worker count — so the
// batch boundaries, and therefore the result, are identical no matter
// how many workers propose. 4096 vertices amortize the barrier cost
// while keeping the frozen state fresh enough that almost every
// proposal survives re-validation.
const moveBatch = 4096

// louvainPasses caps local-moving passes per Louvain level, matching
// the seed's weightedLocalMove bound.
const louvainPasses = 16

// moveSeed expands a user seed into the LCG state of the
// pseudo-shuffle (same mixing constants as the seed's engine).
func moveSeed(seed int64) uint64 {
	return uint64(seed)*2862933555777941757 + 3037000493
}

// scratch returns buf resized to n, reallocating only on growth, so a
// warm workspace reuses its arrays allocation-free. Contents are
// unspecified; callers that need zeroing clear explicitly.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// moveScatter is the dense replacement for map[int32]float64 neighbor
// accumulation: wsum[c] is valid iff stamp[c] equals the current
// epoch, and touched lists the valid entries. begin is O(1) — it bumps
// the epoch; when the uint32 epoch wraps the stamps are cleared once
// every 2^32-1 gathers.
type moveScatter struct {
	wsum    []float64
	stamp   []uint32
	touched []int32
	epoch   uint32
}

func (s *moveScatter) ensure(k int) {
	if len(s.stamp) >= k {
		return
	}
	s.wsum = make([]float64, k)
	s.stamp = make([]uint32, k)
	s.epoch = 0
}

func (s *moveScatter) begin() {
	s.touched = s.touched[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *moveScatter) add(c int32, w float64) {
	if s.stamp[c] != s.epoch {
		s.stamp[c] = s.epoch
		s.wsum[c] = w
		s.touched = append(s.touched, c)
		return
	}
	s.wsum[c] += w
}

// get returns the accumulated weight into c, zero if untouched.
func (s *moveScatter) get(c int32) float64 {
	if s.stamp[c] == s.epoch {
		return s.wsum[c]
	}
	return 0
}

// relabeler densifies arbitrary labels to [0, n) in first-seen order —
// the stamp/epoch analogue of the map[int32]int32 the seed's densify
// and weightedLocalMove tails used.
type relabeler struct {
	remap []int32
	stamp []uint32
	epoch uint32
	next  int32
}

func (r *relabeler) ensure(k int) {
	if len(r.stamp) >= k {
		return
	}
	r.remap = make([]int32, k)
	r.stamp = make([]uint32, k)
	r.epoch = 0
}

func (r *relabeler) begin() {
	r.next = 0
	r.epoch++
	if r.epoch == 0 {
		clear(r.stamp)
		r.epoch = 1
	}
}

// id returns the dense id of label c, assigning the next free id on
// first sight.
func (r *relabeler) id(c int32) int32 {
	if r.stamp[c] != r.epoch {
		r.stamp[c] = r.epoch
		r.remap[c] = r.next
		r.next++
	}
	return r.remap[c]
}

// moveView is the graph a local-moving pass runs on: either the
// original CSR (w == nil means unit arc weights, kv == nil means the
// vertex strength is its arc count) or a contracted Louvain level
// (weighted arcs, kv[v] = total original degree inside supervertex v).
type moveView struct {
	off []int64
	adj []int32
	w   []float64
	kv  []float64
}

func (vw moveView) strength(v int32) float64 {
	if vw.kv != nil {
		return vw.kv[v]
	}
	return float64(vw.off[v+1] - vw.off[v])
}

// MoveWorkspace is the reusable state of the local-moving engine. The
// zero value is ready to use. A caller that clusters repeatedly holds
// one and calls its Louvain/Refine methods; after a warm-up run on a
// given graph size, repeated runs allocate nothing. There is no
// package pool: the package-level Louvain and Refine build a
// workspace per call and drop it on return. Clusterings returned by
// the workspace methods alias workspace memory and are valid until the
// next call on the same workspace.
// A workspace is not safe for concurrent use, but its methods
// parallelize internally across the requested workers.
type MoveWorkspace struct {
	// Shared move state (indexed by current-level vertex/community).
	assign []int32
	degsum []float64
	free   []int32
	order  []int32
	m      float64
	rng    uint64

	// Per-worker propose state.
	sc   []*moveScatter
	cand [][]int32

	// Active set of local moving, one bit per current-level vertex:
	// active is read by the propose phase, nextActive collects the
	// neighbours of the vertices the apply phase moved.
	active, nextActive []uint64

	rel relabeler

	// Louvain: original-vertex mapping and the ping-ponged level CSR.
	mapping []int32
	lvOff   [2][]int64
	lvAdj   [2][]int32
	lvW     [2][]float64
	lvKv    [2][]float64

	// Contraction scratch: community member lists via counting sort,
	// per-community arc-count weights for degree-aware partitioning,
	// and per-worker CSR output buffers for the parallel arm.
	cCursor []int64
	cMember []int32
	cArcs   []int64
	cAdj    [][]int32
	cW      [][]float64
	bounds  []int

	// Exact modularity accounting (mirrors Modularity bit for bit).
	qIntra []int64
	qDeg   []int64
}

// ensureMove sizes the engine state for n vertices, community ids in
// [0, k), and the given worker count.
func (ws *MoveWorkspace) ensureMove(n, k, workers int) {
	ws.assign = scratch(ws.assign, n)
	ws.order = scratch(ws.order, n)
	ws.degsum = scratch(ws.degsum, k)
	ws.rel.ensure(k)
	for len(ws.sc) < workers {
		ws.sc = append(ws.sc, &moveScatter{})
	}
	for len(ws.cand) < workers {
		ws.cand = append(ws.cand, nil)
	}
	for w := 0; w < workers; w++ {
		ws.sc[w].ensure(k)
	}
}

// bestMove gathers v's neighbor communities into sc and returns the
// best strictly-improving move target, its gain, and whether the best
// move is a detach into a fresh community (Refine only). Ties on gain
// break toward the smaller community id, so the answer is independent
// of the touched-list order. Reads shared state only — safe to run
// concurrently with other bestMove calls.
func (ws *MoveWorkspace) bestMove(sc *moveScatter, vw moveView, v int32, allowDetach bool) (int32, float64, bool) {
	sc.begin()
	lo, hi := vw.off[v], vw.off[v+1]
	if vw.w == nil {
		for a := lo; a < hi; a++ {
			sc.add(ws.assign[vw.adj[a]], 1)
		}
	} else {
		for a := lo; a < hi; a++ {
			sc.add(ws.assign[vw.adj[a]], vw.w[a])
		}
	}
	cv := ws.assign[v]
	kv := vw.strength(v)
	lcv := sc.get(cv)
	m := ws.m
	bestD := cv
	bestGain := 0.0
	for _, d := range sc.touched {
		if d == cv {
			continue
		}
		ld := sc.wsum[d]
		gain := (ld-lcv)/m - kv*(ws.degsum[d]-(ws.degsum[cv]-kv))/(2*m*m)
		if gain > bestGain || (gain == bestGain && gain > 0 && d < bestD) {
			bestGain = gain
			bestD = d
		}
	}
	detach := false
	if allowDetach {
		if gn := -lcv/m + kv*(ws.degsum[cv]-kv)/(2*m*m); gn > bestGain {
			bestGain = gn
			detach = true
		}
	}
	return bestD, bestGain, detach
}

// applyMove commits a validated move. Detach pops the fresh id BEFORE
// the emptied source community is pushed, preserving the seed engine's
// free-list order (a vertex never detaches into the id it vacated).
func (ws *MoveWorkspace) applyMove(vw moveView, v, d int32, detach bool) {
	if detach {
		d = ws.free[len(ws.free)-1]
		ws.free = ws.free[:len(ws.free)-1]
	}
	kv := vw.strength(v)
	cv := ws.assign[v]
	ws.degsum[cv] -= kv
	if ws.degsum[cv] == 0 && ws.free != nil {
		ws.free = append(ws.free, cv)
	}
	ws.degsum[d] += kv
	ws.assign[v] = d
}

// isActive reports whether vertex v of the current level is in the
// active set.
func (ws *MoveWorkspace) isActive(v int32) bool {
	return ws.active[v>>6]&(1<<(v&63)) != 0
}

// applyBatch re-validates a batch's candidates against the live state
// in batch order, applies the moves that still improve Q, and marks
// every neighbour of a moved vertex active for the next pass. Both
// arms run it serially, so the active set is the same at every worker
// count. Returns the number of moves applied.
func (ws *MoveWorkspace) applyBatch(vw moveView, cand []int32, allowDetach bool) int {
	sc := ws.sc[0]
	next := ws.nextActive
	moves := 0
	for _, v := range cand {
		d, gain, detach := ws.bestMove(sc, vw, v, allowDetach)
		if gain <= 0 {
			continue
		}
		ws.applyMove(vw, v, d, detach)
		for _, u := range vw.adj[vw.off[v]:vw.off[v+1]] {
			next[u>>6] |= 1 << (u & 63)
		}
		moves++
	}
	return moves
}

// runPassSerial is the workers==1 arm: same propose-then-apply batch
// structure as the parallel arm (so results match it exactly), written
// without closures so nothing escapes and a warm pass is alloc-free.
// Returns the proposals made and the moves applied.
func (ws *MoveWorkspace) runPassSerial(vw moveView, n int, allowDetach bool) (proposed, moves int) {
	sc := ws.sc[0]
	for base := 0; base < n; base += moveBatch {
		end := min(base+moveBatch, n)
		cand := ws.cand[0][:0]
		for i := base; i < end; i++ {
			v := ws.order[i]
			if !ws.isActive(v) {
				continue
			}
			if _, gain, _ := ws.bestMove(sc, vw, v, allowDetach); gain > 0 {
				cand = append(cand, v)
			}
		}
		ws.cand[0] = cand
		proposed += len(cand)
		moves += ws.applyBatch(vw, cand, allowDetach)
	}
	return proposed, moves
}

// runPassParallel proposes each batch across the workers against the
// frozen batch-start state (per-worker scatters and candidate buffers,
// no shared writes; the active set is read-only during a pass), then
// re-validates and applies serially in batch order. ForChunkedN chunks
// are contiguous, so concatenating the per-worker candidate buffers in
// worker order IS the batch order, and the candidate set depends only
// on the frozen state — the applied move sequence is therefore
// identical for every worker count.
func (ws *MoveWorkspace) runPassParallel(vw moveView, n int, allowDetach bool, workers int) (proposed, moves int) {
	for base := 0; base < n; base += moveBatch {
		end := min(base+moveBatch, n)
		bn := end - base
		par.ForChunkedN(bn, workers, func(wk, lo, hi int) {
			sc := ws.sc[wk]
			cand := ws.cand[wk][:0]
			for i := lo; i < hi; i++ {
				v := ws.order[base+i]
				if !ws.isActive(v) {
					continue
				}
				if _, gain, _ := ws.bestMove(sc, vw, v, allowDetach); gain > 0 {
					cand = append(cand, v)
				}
			}
			ws.cand[wk] = cand
		})
		// ForChunkedN clamps to bn workers on short batches; truncate
		// the unused buffers so stale candidates never replay.
		used := min(workers, bn)
		for wk := used; wk < workers; wk++ {
			ws.cand[wk] = ws.cand[wk][:0]
		}
		for wk := 0; wk < used; wk++ {
			proposed += len(ws.cand[wk])
			moves += ws.applyBatch(vw, ws.cand[wk], allowDetach)
		}
	}
	return proposed, moves
}

// activateAll puts vertices [0, n) in the active set and nothing else.
func (ws *MoveWorkspace) activateAll(n int) {
	for i := range ws.active {
		ws.active[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		ws.active[len(ws.active)-1] = 1<<r - 1
	}
}

// localMove runs batch-synchronous local moving to convergence (or the
// pass cap) on the view. Callers prime ws.assign, ws.degsum, and (for
// detach moves) ws.free. Returns whether any move was applied; ls,
// when non-nil, receives one row per pass.
//
// Pruning: pass 0 examines every vertex. After that a pass examines
// only the active set — the neighbours of the vertices the previous
// pass moved — since a vertex none of whose neighbours changed
// community sees the same neighbour weights as when it last declined
// to move (Ozaki, Tezuka and Inaba 2016; Leiden's queue of Traag et
// al.). Its gains can still shift through the community totals, so
// the set is a heuristic, not a proof.
//
// Convergence: every applied move is re-validated against the live
// state with the full argmax, so it strictly increases Q (weights are
// integral, sums exact) — the move count is finite. When a pruned pass
// applies no move, one more pass runs with every vertex active; local
// moving stops only when such a full pass applies no move (or at the
// pass cap). A full pass that applies no move saw live state
// throughout (nothing changed it), so its empty candidate set
// certifies a fixpoint of the serial greedy.
func (ws *MoveWorkspace) localMove(vw moveView, n int, m float64, seed int64, workers, maxPasses int, allowDetach bool, ls *MoveLevelStats) bool {
	ws.m = m
	ws.rng = moveSeed(seed)
	order := ws.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	words := (n + 63) / 64
	ws.active = scratch(ws.active, words)
	ws.nextActive = scratch(ws.nextActive, words)
	ws.activateAll(n)
	clear(ws.nextActive)
	full := true
	improved := false
	for pass := 0; pass < maxPasses; pass++ {
		// The seed engine's deterministic LCG pseudo-shuffle.
		for i := n - 1; i > 0; i-- {
			ws.rng = ws.rng*6364136223846793005 + 1442695040888963407
			j := int(ws.rng % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		var proposed, moves int
		if workers > 1 {
			proposed, moves = ws.runPassParallel(vw, n, allowDetach, workers)
		} else {
			proposed, moves = ws.runPassSerial(vw, n, allowDetach)
		}
		if ls != nil {
			ls.record(ws.active, full, proposed, moves)
		}
		switch {
		case moves > 0:
			improved = true
			ws.active, ws.nextActive = ws.nextActive, ws.active
			clear(ws.nextActive)
			full = false
		case full:
			return improved
		default:
			ws.activateAll(n)
			full = true
		}
	}
	return improved
}

// relabelAssign densifies ws.assign[:n] in place (first-seen order)
// and returns the community count.
func (ws *MoveWorkspace) relabelAssign(n int) int {
	ws.rel.begin()
	assign := ws.assign[:n]
	for v := range assign {
		assign[v] = ws.rel.id(assign[v])
	}
	return int(ws.rel.next)
}

// contract builds the next Louvain level from the current view and the
// dense assignment: members are counting-sorted by community, each
// community's arcs are scatter-folded into its aggregated adjacency
// (first-touch order — deterministic), and intra-community arcs are
// dropped (they never influence move gains; m stays the original edge
// count). The result lands in the `slot` ping-pong buffers.
func (ws *MoveWorkspace) contract(vw moveView, n, qc, slot, workers int) moveView {
	assign := ws.assign[:n]
	ws.cCursor = scratch(ws.cCursor, qc+1)
	ws.cMember = scratch(ws.cMember, n)
	ws.cArcs = scratch(ws.cArcs, qc)
	cur := ws.cCursor
	clear(cur)
	clear(ws.cArcs)
	kvNew := scratch(ws.lvKv[slot], qc)
	clear(kvNew)
	for v := 0; v < n; v++ {
		c := assign[v]
		cur[c]++
		ws.cArcs[c] += vw.off[v+1] - vw.off[v]
		kvNew[c] += vw.strength(int32(v))
	}
	// counts -> cursors, then scatter members (stable by vertex id).
	var sum int64
	for c := 0; c < qc; c++ {
		cnt := cur[c]
		cur[c] = sum
		sum += cnt
	}
	for v := 0; v < n; v++ {
		c := assign[v]
		ws.cMember[cur[c]] = int32(v)
		cur[c]++
	}
	// cur[c] is now the END of community c's member run; the start is
	// cur[c-1] (0 for c == 0).
	offNew := scratch(ws.lvOff[slot], qc+1)
	offNew[0] = 0
	if workers > 1 && qc > 1 {
		ws.contractParallel(vw, qc, offNew, workers)
	} else {
		ws.contractRange(vw, 0, qc, offNew[1:], &ws.lvAdj[slot], &ws.lvW[slot], ws.sc[0])
		for c := 0; c < qc; c++ {
			offNew[c+1] += offNew[c]
		}
	}
	ws.lvOff[slot] = offNew
	ws.lvKv[slot] = kvNew
	if workers > 1 && qc > 1 {
		ws.lvAdj[slot] = ws.assembleParallel(offNew, qc, workers, slot)
	}
	return moveView{off: ws.lvOff[slot], adj: ws.lvAdj[slot], w: ws.lvW[slot], kv: ws.lvKv[slot]}
}

// contractRange folds communities [lo, hi) into adj/w buffers (reset
// by the caller), writing each community's aggregated arc count into
// lens[c-lo]. The member run of community c is
// cMember[cCursor[c-1]:cCursor[c]].
func (ws *MoveWorkspace) contractRange(vw moveView, lo, hi int, lens []int64, adjBuf *[]int32, wBuf *[]float64, sc *moveScatter) {
	adj := (*adjBuf)[:0]
	w := (*wBuf)[:0]
	assign := ws.assign
	for c := lo; c < hi; c++ {
		mlo := int64(0)
		if c > 0 {
			mlo = ws.cCursor[c-1]
		}
		sc.begin()
		for _, v := range ws.cMember[mlo:ws.cCursor[c]] {
			alo, ahi := vw.off[v], vw.off[v+1]
			if vw.w == nil {
				for a := alo; a < ahi; a++ {
					if d := assign[vw.adj[a]]; d != int32(c) {
						sc.add(d, 1)
					}
				}
			} else {
				for a := alo; a < ahi; a++ {
					if d := assign[vw.adj[a]]; d != int32(c) {
						sc.add(d, vw.w[a])
					}
				}
			}
		}
		lens[c-lo] = int64(len(sc.touched))
		for _, d := range sc.touched {
			adj = append(adj, d)
			w = append(w, sc.wsum[d])
		}
	}
	*adjBuf = adj
	*wBuf = w
}

// contractParallel folds disjoint degree-aware community ranges into
// per-worker buffers. The range bounds depend on the worker count but
// the per-community adjacency (first-touch order of a serial member
// scan) does not, so the assembled CSR is identical to the serial arm.
func (ws *MoveWorkspace) contractParallel(vw moveView, qc int, offNew []int64, workers int) {
	for len(ws.cAdj) < workers {
		ws.cAdj = append(ws.cAdj, nil)
		ws.cW = append(ws.cW, nil)
	}
	bounds := par.DegreeAware(ws.cArcs[:qc], workers)
	par.ForEachN(workers, workers, func(wk int) {
		lo, hi := bounds[wk], bounds[wk+1]
		if lo >= hi {
			ws.cAdj[wk] = ws.cAdj[wk][:0]
			ws.cW[wk] = ws.cW[wk][:0]
			return
		}
		ws.contractRange(vw, lo, hi, offNew[1+lo:1+hi], &ws.cAdj[wk], &ws.cW[wk], ws.sc[wk])
	})
	for c := 0; c < qc; c++ {
		offNew[c+1] += offNew[c]
	}
	ws.bounds = bounds
}

// assembleParallel copies the per-worker contraction buffers into the
// final level CSR at the offsets the prefix sum fixed.
func (ws *MoveWorkspace) assembleParallel(offNew []int64, qc, workers, slot int) []int32 {
	total := int(offNew[qc])
	adj := scratch(ws.lvAdj[slot], total)
	w := scratch(ws.lvW[slot], total)
	par.ForEachN(workers, workers, func(wk int) {
		lo := ws.bounds[wk]
		hi := ws.bounds[wk+1]
		if lo >= hi {
			return
		}
		copy(adj[offNew[lo]:offNew[hi]], ws.cAdj[wk])
		copy(w[offNew[lo]:offNew[hi]], ws.cW[wk])
	})
	ws.lvW[slot] = w
	return adj
}

// modularityScan recomputes Q of the dense assignment exactly as
// Modularity does — int64 intra/degree histograms folded in ascending
// community order — so the workspace-reported Q is bit-identical to an
// independent Modularity recomputation.
func (ws *MoveWorkspace) modularityScan(g *graph.Graph, assign []int32, count int) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	ws.qIntra = scratch(ws.qIntra, count)
	ws.qDeg = scratch(ws.qDeg, count)
	clear(ws.qIntra)
	clear(ws.qDeg)
	n := g.NumVertices()
	for vi := 0; vi < n; vi++ {
		v := int32(vi)
		cv := assign[v]
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		ws.qDeg[cv] += hi - lo
		for a := lo; a < hi; a++ {
			u := g.Adj[a]
			if u > v && assign[u] == cv {
				ws.qIntra[cv]++
			}
		}
	}
	var q float64
	twoM := 2 * m
	for c := 0; c < count; c++ {
		frac := float64(ws.qDeg[c]) / twoM
		q += float64(ws.qIntra[c])/m - frac*frac
	}
	return q
}

// Louvain runs the multilevel heuristic inside the workspace. The
// returned Assign aliases workspace memory (valid until the next call
// on ws).
func (ws *MoveWorkspace) Louvain(g *graph.Graph, opt LouvainOptions) Clustering {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	maxLevels := opt.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 16
	}
	if opt.Stats != nil {
		*opt.Stats = MoveStats{}
	}
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return Singletons(g)
	}
	m := float64(g.NumEdges())
	ws.ensureMove(n, n, workers)
	ws.free = nil
	ws.mapping = scratch(ws.mapping, n)
	mapping := ws.mapping
	for v := range mapping {
		mapping[v] = int32(v)
	}
	// Level 0 runs directly on g's CSR: unit weights, strength = degree.
	vw := moveView{off: g.Offsets, adj: g.Adj}
	nLvl := n
	slot := 0
	for lv := 0; lv < maxLevels; lv++ {
		assign := ws.assign[:nLvl]
		degsum := ws.degsum[:nLvl]
		for v := 0; v < nLvl; v++ {
			assign[v] = int32(v)
			degsum[v] = vw.strength(int32(v))
		}
		if !ws.localMove(vw, nLvl, m, opt.Seed+int64(lv), workers, louvainPasses, false, opt.Stats.level(lv, nLvl)) {
			break
		}
		qc := ws.relabelAssign(nLvl)
		for v := 0; v < n; v++ {
			mapping[v] = ws.assign[mapping[v]]
		}
		if qc <= 1 {
			break
		}
		vw = ws.contract(vw, nLvl, qc, slot, workers)
		nLvl = qc
		slot = 1 - slot
	}
	ws.rel.begin()
	for v := range mapping {
		mapping[v] = ws.rel.id(mapping[v])
	}
	count := int(ws.rel.next)
	return Clustering{
		Assign: mapping,
		Count:  count,
		Q:      ws.modularityScan(g, mapping, count),
	}
}

// Refine improves a clustering by batch-synchronous greedy vertex
// moves, including detaching into a fresh singleton community; it
// never decreases Q. The returned Assign aliases workspace memory
// (valid until the next call on ws), or is c.Assign itself when g has
// no edges.
func (ws *MoveWorkspace) Refine(g *graph.Graph, c Clustering, maxPasses int, seed int64, workers int) Clustering {
	if workers <= 0 {
		workers = par.Workers()
	}
	if maxPasses <= 0 {
		maxPasses = 16
	}
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return c
	}
	// Community id space: the input ids plus n+1 spare ids so every
	// vertex could in principle detach (same headroom as the seed's
	// moveState).
	k := n + c.Count + 1
	ws.ensureMove(n, k, workers)
	assign := ws.assign[:n]
	copy(assign, c.Assign)
	degsum := ws.degsum[:k]
	clear(degsum)
	for v := 0; v < n; v++ {
		degsum[assign[v]] += float64(g.Offsets[v+1] - g.Offsets[v])
	}
	ws.free = scratch(ws.free, 0)
	for id := int32(c.Count); int(id) < k; id++ {
		ws.free = append(ws.free, id)
	}
	vw := moveView{off: g.Offsets, adj: g.Adj}
	ws.localMove(vw, n, float64(g.NumEdges()), seed, workers, maxPasses, true, nil)
	count := ws.relabelAssign(n)
	return Clustering{
		Assign: assign,
		Count:  count,
		Q:      ws.modularityScan(g, assign, count),
	}
}
