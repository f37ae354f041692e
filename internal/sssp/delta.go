package sssp

import (
	"math"
	"sync/atomic"

	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/par"
)

// The lock-free delta-stepping engine. Distances live in an atomic
// uint64 array holding float64 bit patterns: non-negative floats order
// the same as their bit patterns, so "relax" is a CAS-min on the raw
// bits and the hot path takes no lock anywhere. Buckets are a cyclic
// array of k = ceil(maxW/delta)+2 slots indexed by floor(d/delta) mod k
// — any relaxation from the current bucket lands within the window
// [base, base+k), so slots are recycled as the traversal advances (a
// bounded `far` list absorbs the overflow when a tiny delta would need
// more slots than the cap; the base only jumps forward when the window
// has fully drained, so no pending bucket can ever be skipped).
// Successful relaxations are recorded in per-worker insertion
// buffers and merged at phase boundaries with the counts -> cursors ->
// disjoint-scatter pattern of par.CursorsFromCounts, adapted to
// persistent per-slot arrays so a phase only pays for the slots it
// touched, never O(k). See DESIGN.md section 5e.

const (
	// maxSlots caps the cyclic bucket window; bucket indices at or past
	// the window go to the far list and are redistributed when the
	// window catches up. 2^14 slot headers cost 384 KiB per workspace.
	maxSlots = int64(1) << 14
	// infBits is math.Float64bits(+Inf), the clean state of distBits.
	infBits = uint64(0x7FF0000000000000)
	// noArc is the clean state of parentArc (identity of CAS-min).
	noArc = int64(math.MaxInt64)
)

// Workspace is the reusable state of the delta-stepping engine.
// Acquire one with AcquireWorkspace, call Run per source, and read the
// results through Dist/Parent/Result; after a warm-up run on a given
// graph, repeated sources allocate nothing. Between runs the vertex-
// indexed arrays satisfy a clean invariant (dist +Inf, parent -1,
// distBits infBits, parentArc noArc) restored sparsely — O(touched),
// not O(n) — from the previous run's reach set, mirroring the
// PR-1 epoch-stamped scheme. Not safe for concurrent use.
type Workspace struct {
	// Outputs of the last Run (clean invariant between runs).
	dist   []float64
	parent []int32

	// Relaxation state (clean invariant between runs).
	distBits  []uint64 // atomic float64 bit casts
	parentArc []int64  // atomic min certifying arc index
	touched   []int32  // vertices reached by the last run

	// Light/heavy arc partition, cached per (graph, delta): arcs of v
	// occupy arcAdj/arcW[g.Offsets[v]:g.Offsets[v+1]] with light arcs
	// (w <= delta) packed before lightEnd[v] and heavy after, so the
	// light-phase inner loop never re-tests w > delta.
	arcAdj         []int32
	arcW           []float64
	arcW32         []float32
	lightEnd       []int64
	cachedPart     *graph.Graph
	cachedDelta    float64
	cachedAllHeavy bool // no light arcs at all (delta below the minimum weight)
	cachedW32      bool // every weight round-trips through float32 exactly

	// Max edge weight, computed once per run and cached per graph: it
	// feeds both the default delta heuristic and the window size.
	cachedMaxWG *graph.Graph
	cachedMaxW  float64

	// Cyclic bucket window and overflow.
	slots [][]int32
	far   []int32

	// Bucket processing scratch.
	live    []int32
	settled []int32
	stampD  []uint32 // drain dedup stamps
	stampS  []uint32 // per-bucket settled dedup stamps
	epochD  uint32
	epochS  uint32

	// Per-worker insertion buffers.
	wk []deltaWorker

	// Phase-merge scratch (union of touched slots).
	unionSlots []int32
	slotStamp  []uint32
	slotEpoch  uint32

	// parentArcUsed marks that the last run wrote parentArc (directed
	// graphs only), so reset can skip restoring it otherwise.
	parentArcUsed bool

	// Per-run engine state, embedded so Run allocates nothing: a
	// stack-declared run header would escape into the parallel-phase
	// closures and cost one heap allocation per source.
	run deltaRun
}

// deltaWorker is one worker's insertion state for a single phase: the
// (slot, vertex) pairs it emitted, its per-slot histogram (counts),
// which slots it touched (for sparse cursor building and reset), plus
// overflow and first-touch side channels.
type deltaWorker struct {
	slot       []int32
	vert       []int32
	counts     []int64
	slotsUsed  []int32
	far        []int32
	firstTouch []int32
	_          [8]uint64 // keep adjacent workers' append-heavy headers apart
}

var wsPool = par.NewPool(func() *Workspace { return &Workspace{} })

// AcquireWorkspace returns a pooled delta-stepping workspace. Release
// it with ReleaseWorkspace when done; Run sizes it to the graph.
func AcquireWorkspace() *Workspace { return wsPool.Get() }

// ReleaseWorkspace returns a workspace to the shared pool. The arrays
// backing the last Run's Dist/Parent go with it; copy them out first if
// they must outlive the release.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// Dist returns the distance array of the last Run, Inf for unreachable
// vertices. The slice is workspace-owned: valid until the next Run.
func (ws *Workspace) Dist() []float64 { return ws.dist }

// Parent returns the shortest-path-tree parent array of the last Run:
// Parent[src] = src, unreachable vertices -1, and every other reached
// vertex the deterministic minimum-arc-index certifying parent (see
// Run). Workspace-owned; valid until the next Run.
func (ws *Workspace) Parent() []int32 { return ws.parent }

// Result bundles the workspace-owned Dist and Parent slices.
func (ws *Workspace) Result() Result { return Result{Dist: ws.dist, Parent: ws.parent} }

// Reached returns the vertices reached by the last Run (including the
// source), in no particular order. Serving layers summarize a run —
// reached count, distance sum, maximum — in O(reached) from this slice
// instead of scanning the O(n) distance array. Read-only,
// workspace-owned, valid until the next Run.
func (ws *Workspace) Reached() []int32 { return ws.touched }

// resize establishes the clean invariant for n vertices. Fresh
// allocations are filled to capacity so later in-capacity regrows stay
// clean; previously used entries were restored by the run that touched
// them.
func (ws *Workspace) resize(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.dist = ws.dist[:cap(ws.dist)]
		for i := range ws.dist {
			ws.dist[i] = Inf
		}
		ws.parent = make([]int32, cap(ws.dist))
		for i := range ws.parent {
			ws.parent[i] = -1
		}
		ws.distBits = make([]uint64, cap(ws.dist))
		for i := range ws.distBits {
			ws.distBits[i] = infBits
		}
		ws.parentArc = make([]int64, cap(ws.dist))
		for i := range ws.parentArc {
			ws.parentArc[i] = noArc
		}
		ws.stampD = make([]uint32, cap(ws.dist))
		ws.stampS = make([]uint32, cap(ws.dist))
		ws.epochD = 0
		ws.epochS = 0
	}
	ws.dist = ws.dist[:n]
	ws.parent = ws.parent[:n]
	ws.distBits = ws.distBits[:n]
	ws.parentArc = ws.parentArc[:n]
	ws.stampD = ws.stampD[:n]
	ws.stampS = ws.stampS[:n]
}

// reset restores the clean invariant from the previous run's reach set.
// parentArc is only written by directed runs (undirected runs resolve
// parents bucket by bucket), so its restore is gated on the dirty flag.
func (ws *Workspace) reset() {
	if ws.parentArcUsed {
		ws.parentArcUsed = false
		for _, v := range ws.touched {
			ws.parentArc[v] = noArc
		}
	}
	for _, v := range ws.touched {
		ws.dist[v] = Inf
		ws.parent[v] = -1
		ws.distBits[v] = infBits
	}
	ws.touched = ws.touched[:0]
}

// maxWeight returns the maximum edge weight of g, computed once and
// cached per graph (the satellite fix for defaultDelta rescanning all
// of g.W on every call): both the delta heuristic and the cyclic
// window size reuse it.
func (ws *Workspace) maxWeight(g *graph.Graph, workers int) float64 {
	if ws.cachedMaxWG == g {
		return ws.cachedMaxW
	}
	nA := len(g.W)
	mx := 0.0
	if workers <= 1 || nA < 1<<14 {
		for _, w := range g.W {
			if w > mx {
				mx = w
			}
		}
	} else {
		partial := make([]float64, workers)
		par.ForChunkedN(nA, workers, func(w, lo, hi int) {
			m := 0.0
			for i := lo; i < hi; i++ {
				if g.W[i] > m {
					m = g.W[i]
				}
			}
			partial[w] = m
		})
		for _, m := range partial {
			if m > mx {
				mx = m
			}
		}
	}
	ws.cachedMaxWG = g
	ws.cachedMaxW = mx
	return mx
}

// preparePartition builds (or reuses) the light/heavy arc partition
// for (g, delta).
func (ws *Workspace) preparePartition(g *graph.Graph, delta float64, workers int) {
	if ws.cachedPart == g && ws.cachedDelta == delta {
		return
	}
	n := g.NumVertices()
	nA := g.NumArcs()
	if cap(ws.arcAdj) < nA {
		ws.arcAdj = make([]int32, nA)
		ws.arcW = make([]float64, nA)
		ws.arcW32 = make([]float32, nA)
	}
	ws.arcAdj = ws.arcAdj[:nA]
	ws.arcW = ws.arcW[:nA]
	ws.arcW32 = ws.arcW32[:nA]
	if cap(ws.lightEnd) < n {
		ws.lightEnd = make([]int64, n)
	}
	ws.lightEnd = ws.lightEnd[:n]
	var notW32 int32
	par.ForChunkedN(n, workers, func(_, lo, hi int) {
		inexact := false
		for v := lo; v < hi; v++ {
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			e := alo
			for a := alo; a < ahi; a++ {
				if w := g.W[a]; w <= delta {
					w32 := float32(w)
					inexact = inexact || float64(w32) != w
					ws.arcAdj[e] = g.Adj[a]
					ws.arcW[e] = w
					ws.arcW32[e] = w32
					e++
				}
			}
			ws.lightEnd[v] = e
			for a := alo; a < ahi; a++ {
				if w := g.W[a]; w > delta {
					w32 := float32(w)
					inexact = inexact || float64(w32) != w
					ws.arcAdj[e] = g.Adj[a]
					ws.arcW[e] = w
					ws.arcW32[e] = w32
					e++
				}
			}
		}
		if inexact {
			atomic.StoreInt32(&notW32, 1)
		}
	})
	ws.cachedPart = g
	ws.cachedDelta = delta
	ws.cachedW32 = notW32 == 0
	allHeavy := true
	for v := 0; v < n; v++ {
		if ws.lightEnd[v] != g.Offsets[v] {
			allHeavy = false
			break
		}
	}
	ws.cachedAllHeavy = allHeavy
}

// sizeBuckets sizes the cyclic window and per-worker state for k slots
// and `workers` workers.
func (ws *Workspace) sizeBuckets(k int64, workers int) {
	for int64(len(ws.slots)) < k {
		ws.slots = append(ws.slots, nil)
	}
	for int64(len(ws.slotStamp)) < k {
		ws.slotStamp = append(ws.slotStamp, 0)
	}
	for len(ws.wk) < workers {
		ws.wk = append(ws.wk, deltaWorker{})
	}
	for w := range ws.wk[:workers] {
		wk := &ws.wk[w]
		for int64(len(wk.counts)) < k {
			wk.counts = append(wk.counts, 0)
		}
	}
}

// nextEpoch bumps an epoch counter, clearing the stamp array on uint32
// wraparound so a stale stamp can never collide with a new epoch.
func nextEpoch(epoch *uint32, stamp []uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		for i := range stamp {
			stamp[i] = 0
		}
		*epoch = 1
	}
	return *epoch
}

// bucketOf maps a distance to its absolute bucket index. The same
// expression is used at insertion and at drain so an entry's target
// bucket is reproducible from its distance.
func bucketOf(d, delta float64) int64 {
	q := d / delta
	if q >= float64(int64(1)<<62) {
		return int64(1) << 62
	}
	return int64(q)
}

// deltaRun is the per-run view of the engine: immutable parameters plus
// the window base and current bucket (both fixed for the duration of
// any parallel phase). The window covers absolute buckets
// [base, base+k); base <= cur <= base+k always holds, and base only
// advances in redistributeFar once every window slot has drained.
type deltaRun struct {
	ws       *Workspace
	g        *graph.Graph
	delta    float64
	k        int64
	base     int64
	cur      int64
	queued   int64
	workers  int
	allHeavy bool
	// settleEpoch is the run-wide settle stamp epoch for the fused
	// all-heavy single-worker drain (see processBucketAllHeavy).
	settleEpoch uint32
}

// Run computes SSSP from src into the workspace. Results are exposed
// through Dist/Parent/Result and stay valid until the next Run.
//
// Dist is bit-identical to Dijkstra for any delta and worker count:
// both algorithms converge to the unique least fixed point of
// dist[v] = min over arcs (u,v) of fl(dist[u] + w), evaluated in the
// same float64 arithmetic. Parent follows a deterministic documented
// tie-break: Parent[v] is the tail of the minimum-index arc a with
// dist[tail(a)] + w[a] == dist[v], resolved by a CAS-min post-pass
// over the reached subgraph.
//
// Unweighted graphs (g.W == nil) skip the bucket machinery: every edge
// weighs 1, delta-stepping degenerates to level-synchronous BFS, and
// the traversal runs on the shared direction-optimizing frontier
// engine instead.
func (ws *Workspace) Run(g *graph.Graph, src int32, opt DeltaSteppingOptions) {
	n := g.NumVertices()
	ws.reset() // restore the clean invariant before any resize can shrink the arrays
	ws.resize(n)
	if n == 0 {
		return
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if g.W == nil {
		ws.runUnweighted(g, src, workers, opt.Cancel)
		return
	}
	maxW := ws.maxWeight(g, workers)
	delta := opt.Delta
	if !(delta > 0) {
		delta = defaultDeltaFor(g, maxW)
	}
	ws.preparePartition(g, delta, workers)
	k := maxSlots
	if ratio := maxW / delta; ratio < float64(maxSlots-2) {
		k = int64(math.Ceil(ratio)) + 2
	}
	ws.sizeBuckets(k, workers)

	r := &ws.run
	*r = deltaRun{ws: ws, g: g, delta: delta, k: k, workers: workers, allHeavy: ws.cachedAllHeavy}
	if r.allHeavy && workers == 1 && !g.Directed() {
		r.settleEpoch = nextEpoch(&ws.epochS, ws.stampS)
	}
	atomic.StoreUint64(&ws.distBits[src], 0) // Float64bits(0) == 0
	ws.touched = append(ws.touched, src)
	ws.slots[0] = append(ws.slots[0][:0], src)
	r.queued = 1

	for r.queued > 0 {
		if opt.Cancel != nil && opt.Cancel() {
			ws.abort(r)
			return
		}
		// Find the lowest non-empty bucket in the window [base, base+k).
		// Relaxations never produce a bucket below cur, so cur advances
		// monotonically and the scan never needs to look back; anything
		// at or past base+k sits in the far list. cur is deliberately
		// NOT advanced past a drained bucket: a heavy-phase relaxation
		// can round fl(dv+w) back into bucket cur (see
		// processBucketAllHeavy), and slot cur%k next recurs at bucket
		// cur+k — outside the window — so skipping it would strand the
		// entry (hanging the queued count, or dropping the improved
		// vertex's relaxations as stale). Rescanning from cur re-drains
		// the slot until it stays empty, in every heavy arm.
		found := false
		for b := r.cur; b < r.base+r.k; b++ {
			if len(ws.slots[b%r.k]) > 0 {
				r.cur = b
				found = true
				break
			}
		}
		if !found {
			r.redistributeFar()
			continue
		}
		r.processBucket()
	}
	r.finalize(src)
	r.g = nil // drop the graph reference while pooled
}

// abort cleans up a cancelled run: the bucket window and overflow list
// may still hold entries (a completed run drains both), and leaving
// them behind would leak ghost work into the workspace's next Run. The
// touched list is complete at every phase boundary — the only points
// Run polls Cancel — so reset's sparse clean-state restore stays exact.
func (ws *Workspace) abort(r *deltaRun) {
	for i := range ws.slots {
		ws.slots[i] = ws.slots[i][:0]
	}
	ws.far = ws.far[:0]
	ws.settled = ws.settled[:0]
	r.g = nil
}

// runUnweighted is the degenerate all-weights-1 case on the shared
// frontier engine, converted to the float64 Result convention.
func (ws *Workspace) runUnweighted(g *graph.Graph, src int32, workers int, cancel func() bool) {
	e := frontier.AcquireEngine(g.NumVertices())
	defer frontier.ReleaseEngine(e)
	e.RunOptions(g, src, frontier.Options{
		Workers:  workers,
		MaxDepth: -1,
		Alpha:    frontier.DefaultAlpha,
		Cancel:   cancel,
	})
	ws.touched = append(ws.touched, e.Order()...)
	for _, v := range e.Order() {
		ws.dist[v] = float64(e.Dist(v))
		ws.parent[v] = e.Parent(v)
	}
}

// relax is the lock-free edge relaxation: CAS-min on the distance bit
// pattern, recording the new bucket entry in the calling worker's
// insertion buffer on success. old == infBits detects first touch.
func (r *deltaRun) relax(wk *deltaWorker, v int32, nd float64) {
	bits := math.Float64bits(nd)
	addr := &r.ws.distBits[v]
	for {
		old := atomic.LoadUint64(addr)
		if old <= bits {
			return
		}
		if !atomic.CompareAndSwapUint64(addr, old, bits) {
			continue
		}
		if old == infBits {
			wk.firstTouch = append(wk.firstTouch, v)
		}
		b := bucketOf(nd, r.delta)
		if b >= r.base+r.k {
			wk.far = append(wk.far, v)
		} else {
			s := int32(b % r.k)
			if wk.counts[s] == 0 {
				wk.slotsUsed = append(wk.slotsUsed, s)
			}
			wk.counts[s]++
			wk.slot = append(wk.slot, s)
			wk.vert = append(wk.vert, v)
		}
		return
	}
}

// merge drains every worker's insertion buffer into the persistent
// bucket slots: per-slot totals become write cursors (bucket-major,
// worker-minor — the par.CursorsFromCounts layout), then each worker
// scatters its entries into its disjoint range. Only slots touched
// this phase are visited. Returns the number of entries added.
func (r *deltaRun) merge() int64 {
	ws := r.ws
	epoch := nextEpoch(&ws.slotEpoch, ws.slotStamp)
	union := ws.unionSlots[:0]
	for w := 0; w < r.workers; w++ {
		for _, s := range ws.wk[w].slotsUsed {
			if ws.slotStamp[s] != epoch {
				ws.slotStamp[s] = epoch
				union = append(union, s)
			}
		}
	}
	var added int64
	for _, s := range union {
		acc := int64(len(ws.slots[s]))
		for w := 0; w < r.workers; w++ {
			if c := ws.wk[w].counts[s]; c != 0 {
				ws.wk[w].counts[s] = acc
				acc += c
			}
		}
		added += acc - int64(len(ws.slots[s]))
		ws.slots[s] = growInt32(ws.slots[s], int(acc))
	}
	// Duplicated serial/parallel scatter: a shared func literal would
	// escape into ForEachN and allocate on every merge, even when the
	// serial arm runs (see the note in processBucket).
	if r.workers == 1 {
		wk := &ws.wk[0]
		for i, s := range wk.slot {
			idx := wk.counts[s]
			wk.counts[s] = idx + 1
			ws.slots[s][idx] = wk.vert[i]
		}
		for _, s := range wk.slotsUsed {
			wk.counts[s] = 0
		}
		wk.slot = wk.slot[:0]
		wk.vert = wk.vert[:0]
		wk.slotsUsed = wk.slotsUsed[:0]
	} else {
		par.ForEachN(r.workers, r.workers, func(w int) {
			wk := &ws.wk[w]
			for i, s := range wk.slot {
				idx := wk.counts[s]
				wk.counts[s] = idx + 1
				ws.slots[s][idx] = wk.vert[i]
			}
			for _, s := range wk.slotsUsed {
				wk.counts[s] = 0
			}
			wk.slot = wk.slot[:0]
			wk.vert = wk.vert[:0]
			wk.slotsUsed = wk.slotsUsed[:0]
		})
	}
	ws.unionSlots = union[:0]
	for w := 0; w < r.workers; w++ {
		wk := &ws.wk[w]
		ws.far = append(ws.far, wk.far...)
		added += int64(len(wk.far))
		wk.far = wk.far[:0]
		ws.touched = append(ws.touched, wk.firstTouch...)
		wk.firstTouch = wk.firstTouch[:0]
	}
	return added
}

// processBucket runs the light-edge phases of bucket cur until it
// stops refilling, then relaxes the heavy edges of everything settled
// in it. When the bucket empties, the distances of its members are
// final (no relaxation can produce a value below (cur+1)*delta from
// outside, and light closure exhausts the inside), which is the
// classic delta-stepping invariant the heavy phase relies on.
func (r *deltaRun) processBucket() {
	ws := r.ws
	g := r.g
	if r.workers == 1 && r.allHeavy && !g.Directed() {
		r.processBucketAllHeavy()
		return
	}
	s := r.cur % r.k
	epochS := nextEpoch(&ws.epochS, ws.stampS)
	for len(ws.slots[s]) > 0 {
		entries := ws.slots[s]
		ws.slots[s] = entries[:0]
		r.queued -= int64(len(entries))
		epochD := nextEpoch(&ws.epochD, ws.stampD)
		live := ws.live[:0]
		for _, v := range entries {
			// Drop stale entries (the vertex was re-relaxed into a
			// different bucket after this entry was queued) and
			// same-batch duplicates.
			if bucketOf(math.Float64frombits(ws.distBits[v]), r.delta) != r.cur {
				continue
			}
			if ws.stampD[v] == epochD {
				continue
			}
			ws.stampD[v] = epochD
			live = append(live, v)
			if ws.stampS[v] != epochS {
				ws.stampS[v] = epochS
				ws.settled = append(ws.settled, v)
			}
		}
		ws.live = live
		if len(live) == 0 {
			continue
		}
		// The workers == 1 arms take a different, cheaper route than the
		// parallel closures: no atomics (single goroutine), the stale
		// test inlined into the arc loop so non-improving arcs — the
		// vast majority — never pay a call, entries appended straight
		// into the bucket slots (no insertion buffers, no merge), and
		// no func literals evaluated (closures passed to par escape,
		// and one heap allocation per phase would break the
		// zero-allocation steady state).
		if r.workers == 1 {
			for _, v := range live {
				dv := math.Float64frombits(ws.distBits[v])
				for a, end := g.Offsets[v], ws.lightEnd[v]; a < end; a++ {
					u := ws.arcAdj[a]
					nd := dv + ws.arcW[a]
					bits := math.Float64bits(nd)
					old := ws.distBits[u]
					if old <= bits {
						continue
					}
					r.commitSerial(u, nd, bits, old)
				}
			}
		} else {
			par.ForChunkedN(len(live), r.workers, func(w, lo, hi int) {
				wk := &ws.wk[w]
				for i := lo; i < hi; i++ {
					v := live[i]
					dv := math.Float64frombits(atomic.LoadUint64(&ws.distBits[v]))
					for a, end := g.Offsets[v], ws.lightEnd[v]; a < end; a++ {
						r.relax(wk, ws.arcAdj[a], dv+ws.arcW[a])
					}
				}
			})
			r.queued += r.merge()
		}
	}
	settled := ws.settled
	switch {
	case r.workers == 1 && !g.Directed():
		// Fused heavy phase + parent resolution. The two concerns split
		// an arc's neighbors disjointly: old > dvBits means u cannot
		// certify v (du + w > dv) but may be relaxable, while
		// old <= dvBits means u is final (its bucket already drained)
		// and cannot be improved, but may certify v. So the parent
		// scan rides the heavy sweep's loads for free instead of
		// re-streaming every settled vertex's adjacency in a second
		// pass; only the light segment needs its own (certify-only)
		// walk. See resolveParents for why the certification test
		// against current distances is exact here.
		for _, v := range settled {
			dvBits := ws.distBits[v]
			dv := math.Float64frombits(dvBits)
			p := int32(-1)
			for a, le := g.Offsets[v], ws.lightEnd[v]; a < le; a++ {
				u := ws.arcAdj[a]
				if old := ws.distBits[u]; old <= dvBits {
					if math.Float64frombits(old)+ws.arcW[a] == dv && (p < 0 || u < p) {
						p = u
					}
				}
			}
			for a, end := ws.lightEnd[v], g.Offsets[v+1]; a < end; a++ {
				u := ws.arcAdj[a]
				w := ws.arcW[a]
				old := ws.distBits[u]
				if old > dvBits {
					nd := dv + w
					bits := math.Float64bits(nd)
					if old > bits {
						r.commitSerial(u, nd, bits, old)
					}
				} else if math.Float64frombits(old)+w == dv && (p < 0 || u < p) {
					p = u
				}
			}
			ws.parent[v] = p
		}
		ws.settled = ws.settled[:0]
		return
	case r.workers == 1:
		for _, v := range settled {
			dv := math.Float64frombits(ws.distBits[v])
			for a, end := ws.lightEnd[v], g.Offsets[v+1]; a < end; a++ {
				u := ws.arcAdj[a]
				nd := dv + ws.arcW[a]
				bits := math.Float64bits(nd)
				old := ws.distBits[u]
				if old <= bits {
					continue
				}
				r.commitSerial(u, nd, bits, old)
			}
		}
	default:
		par.ForChunkedN(len(settled), r.workers, func(w, lo, hi int) {
			wk := &ws.wk[w]
			for i := lo; i < hi; i++ {
				v := settled[i]
				dv := math.Float64frombits(atomic.LoadUint64(&ws.distBits[v]))
				for a, end := ws.lightEnd[v], g.Offsets[v+1]; a < end; a++ {
					r.relax(wk, ws.arcAdj[a], dv+ws.arcW[a])
				}
			}
		})
		r.queued += r.merge()
	}
	if !g.Directed() {
		r.resolveParents(settled)
	}
	ws.settled = ws.settled[:0]
}

// processBucketAllHeavy is the single-worker undirected drain for runs
// whose delta sits below the minimum edge weight, so no arc is light —
// the shape the default heuristic produces on the weighted R-MAT
// instances, i.e. the benchmark hot path. With no light arcs a
// bucket's vertices cannot re-relax each other (a heavy relaxation
// from bucket cur lands past cur) and every certifying neighbor
// settled in a strictly earlier bucket, so a vertex is final the first
// time it is drained: the drain, the heavy phase, and the parent
// certification collapse into one pass guarded by one run-wide settle
// stamp — no live list, no settled list, no per-entry staleness
// division, no lightEnd loads, and the relaxation commit inlined.
//
// The one wrinkle is float rounding: fl(dv+w) can fall a hair short of
// the next bucket boundary and re-enter bucket cur, occasionally
// improving an already-settled vertex. The commit detects that case
// and clears the vertex's settle stamp (0 never matches an epoch), so
// the outer re-drain loop reprocesses it — and requeues anything it
// had relaxed at the stale distance — exactly like the general path's
// staleness machinery, just off the hot loop.
func (r *deltaRun) processBucketAllHeavy() {
	ws := r.ws
	if ws.cachedW32 {
		// Weight-compressed flavor: when every weight round-trips
		// through float32 exactly (integer weights, in particular),
		// fl(dv + float64(float32(w))) == fl(dv + w) bit for bit, and
		// streaming 4-byte weights halves the loop's dominant memory
		// traffic.
		r.processBucketAllHeavyW32()
		return
	}
	g := r.g
	s := r.cur % r.k
	epoch := r.settleEpoch
	pf := int64(0)
	for len(ws.slots[s]) > 0 {
		// Detach the drained batch from the slot storage by swapping in
		// the live scratch array: the b == cur rounding requeue below
		// appends back into slot s, and with a shared backing array a
		// burst of requeues could overwrite entries not yet read. The
		// two arrays ping-pong across iterations, so steady state still
		// allocates nothing.
		entries := ws.slots[s]
		ws.slots[s] = ws.live[:0]
		ws.live = entries
		r.queued -= int64(len(entries))
		for i, v := range entries {
			// The loop is latency-bound on the first cache lines of each
			// vertex's arc segment (settle order is effectively random),
			// so touch the segment a few entries ahead; the sink
			// accumulator keeps the loads from being dead-code
			// eliminated, and the store below publishes it.
			if i+6 < len(entries) {
				o := g.Offsets[entries[i+6]]
				pf += int64(ws.arcAdj[o]) + int64(math.Float64bits(ws.arcW[o]))
			}
			// One stamp covers duplicate entries, entries superseded by
			// settling in an earlier bucket, and the settle itself.
			if ws.stampS[v] == epoch {
				continue
			}
			ws.stampS[v] = epoch
			dvBits := ws.distBits[v]
			dv := math.Float64frombits(dvBits)
			p := int32(-1)
			for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
				u := ws.arcAdj[a]
				w := ws.arcW[a]
				old := ws.distBits[u]
				if old > dvBits {
					nd := dv + w
					bits := math.Float64bits(nd)
					if old <= bits {
						continue
					}
					ws.distBits[u] = bits
					if old == infBits {
						ws.touched = append(ws.touched, u)
					}
					b := bucketOf(nd, r.delta)
					if b >= r.base+r.k {
						ws.far = append(ws.far, u)
					} else {
						if b == r.cur {
							ws.stampS[u] = 0 // rounding edge: force reprocessing
						}
						bs := b % r.k
						ws.slots[bs] = append(ws.slots[bs], u)
					}
					r.queued++
				} else if math.Float64frombits(old)+w == dv && (p < 0 || u < p) {
					p = u
				}
			}
			ws.parent[v] = p
		}
	}
	prefetchSink = pf
}

// processBucketAllHeavyW32 is processBucketAllHeavy reading the
// float32 weight copy; see the dispatch comment there for why the
// arithmetic is bit-identical.
func (r *deltaRun) processBucketAllHeavyW32() {
	ws := r.ws
	g := r.g
	s := r.cur % r.k
	epoch := r.settleEpoch
	pf := int64(0)
	for len(ws.slots[s]) > 0 {
		// Detached batch: rounding requeues append to slot s, which must
		// not alias the batch being read (see processBucketAllHeavy).
		entries := ws.slots[s]
		ws.slots[s] = ws.live[:0]
		ws.live = entries
		r.queued -= int64(len(entries))
		for i, v := range entries {
			if i+6 < len(entries) {
				o := g.Offsets[entries[i+6]]
				pf += int64(ws.arcAdj[o]) + int64(math.Float32bits(ws.arcW32[o]))
			}
			if ws.stampS[v] == epoch {
				continue
			}
			ws.stampS[v] = epoch
			dvBits := ws.distBits[v]
			dv := math.Float64frombits(dvBits)
			p := int32(-1)
			for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
				u := ws.arcAdj[a]
				w := float64(ws.arcW32[a])
				old := ws.distBits[u]
				if old > dvBits {
					nd := dv + w
					bits := math.Float64bits(nd)
					if old <= bits {
						continue
					}
					ws.distBits[u] = bits
					if old == infBits {
						ws.touched = append(ws.touched, u)
					}
					b := bucketOf(nd, r.delta)
					if b >= r.base+r.k {
						ws.far = append(ws.far, u)
					} else {
						if b == r.cur {
							ws.stampS[u] = 0 // rounding edge: force reprocessing
						}
						bs := b % r.k
						ws.slots[bs] = append(ws.slots[bs], u)
					}
					r.queued++
				} else if math.Float64frombits(old)+w == dv && (p < 0 || u < p) {
					p = u
				}
			}
			ws.parent[v] = p
		}
	}
	prefetchSink = pf
}

// prefetchSink absorbs the prefetching loads of processBucketAllHeavy
// so the compiler cannot eliminate them.
var prefetchSink int64

// resolveParents assigns deterministic parents to the vertices settled
// by the bucket that just completed, for undirected graphs. Every
// certifying neighbor u of a settled v (dist[u] + w == dist[v], exact
// equality) has dist[u] <= dist[v], hence a bucket at or below the one
// just finished, hence an already-final distance — so the test against
// current distances is exact. On an undirected CSR the in-arc (u, v)
// mirrors an arc in v's own adjacency with the same weight, and global
// in-arc indices order by tail first, so the documented minimum-index
// certifying arc is simply the minimum certifying neighbor: one warm
// scan of v's arcs right after the heavy phase touched them, instead
// of finalize's cold sweep over the whole reached subgraph. Only the
// parallel path lands here — the single-worker path fuses the same
// certification into its heavy sweep in processBucket.
func (r *deltaRun) resolveParents(settled []int32) {
	ws := r.ws
	g := r.g
	par.ForChunkedN(len(settled), r.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := settled[i]
			dv := math.Float64frombits(atomic.LoadUint64(&ws.distBits[v]))
			p := int32(-1)
			for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
				u := ws.arcAdj[a]
				if math.Float64frombits(atomic.LoadUint64(&ws.distBits[u]))+ws.arcW[a] == dv && (p < 0 || u < p) {
					p = u
				}
			}
			ws.parent[v] = p
		}
	})
}

// commitSerial finishes a single-worker relaxation after the caller's
// inline improvement test: plain (non-atomic) distance store, direct
// slot/far insertion, and direct queued/touched bookkeeping. Only
// called with old > bits from the one goroutine that owns the run.
func (r *deltaRun) commitSerial(v int32, nd float64, bits, old uint64) {
	ws := r.ws
	ws.distBits[v] = bits
	if old == infBits {
		ws.touched = append(ws.touched, v)
	}
	b := bucketOf(nd, r.delta)
	if b >= r.base+r.k {
		ws.far = append(ws.far, v)
	} else {
		s := b % r.k
		ws.slots[s] = append(ws.slots[s], v)
	}
	r.queued++
}

// redistributeFar is the window-recycling step for capped k: when
// every slot in [cur, base+k) is empty but entries remain, slide the
// whole window — base and cur jump together to the lowest live far
// bucket — and re-insert what now fits. An entry whose current bucket
// is below cur is stale: its vertex was relaxed into the window after
// the entry was queued and has already been processed at its final
// distance (window entries always drain before the base moves), so
// dropping it loses nothing. Because the base is fixed between
// redistributions, a far entry can never become due while the window
// still holds work — the overflow condition in relax is b >= base+k,
// and cur never passes base+k without landing here first.
func (r *deltaRun) redistributeFar() {
	ws := r.ws
	minB := int64(math.MaxInt64)
	for _, v := range ws.far {
		b := bucketOf(math.Float64frombits(ws.distBits[v]), r.delta)
		if b >= r.cur && b < minB {
			minB = b
		}
	}
	if minB == int64(math.MaxInt64) {
		r.queued -= int64(len(ws.far))
		ws.far = ws.far[:0]
		return
	}
	r.base = minB
	r.cur = minB
	kept := 0
	for _, v := range ws.far {
		b := bucketOf(math.Float64frombits(ws.distBits[v]), r.delta)
		switch {
		case b < r.cur:
			r.queued--
		case b < r.base+r.k:
			s := b % r.k
			ws.slots[s] = append(ws.slots[s], v)
		default:
			ws.far[kept] = v
			kept++
		}
	}
	ws.far = ws.far[:kept]
}

// finalize converts the converged distance bits to the output arrays
// and, for directed graphs, resolves deterministic parents (undirected
// graphs resolved them bucket by bucket in resolveParents): one sweep
// over each reached vertex's out-arcs min-reduces into parentArc, for
// any neighbor the arc certifies (dist[u] + w == dist[v], exact float
// equality — the arc of the last successful relaxation always
// qualifies), the key (arc index << 31 | tail). The arc index
// determines the tail, so ordering by key is ordering by arc index,
// and the minimum key both picks the documented minimum-index
// certifying arc and carries its tail — the O(touched) resolve pass
// then needs no second arc sweep. Graphs with 2^31 or more arcs (keys
// would overflow) take a two-pass fallback: min-reduce the bare arc
// index, then rescan to map winning arcs back to tails.
func (r *deltaRun) finalize(src int32) {
	ws := r.ws
	g := r.g
	touched := ws.touched
	if !g.Directed() {
		// Parents were resolved bucket by bucket (resolveParents); only
		// the distance bits need converting. O(touched), no arc sweep.
		if r.workers == 1 {
			for _, v := range touched {
				ws.dist[v] = math.Float64frombits(ws.distBits[v])
			}
		} else {
			par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := touched[i]
					ws.dist[v] = math.Float64frombits(ws.distBits[v])
				}
			})
		}
		ws.parent[src] = src
		return
	}
	ws.parentArcUsed = true
	if g.NumArcs() < 1<<31 {
		const tailMask = int64(1)<<31 - 1
		if r.workers == 1 {
			for _, u := range touched {
				du := math.Float64frombits(ws.distBits[u])
				for a, end := g.Offsets[u], g.Offsets[u+1]; a < end; a++ {
					v := g.Adj[a]
					if du+g.W[a] == math.Float64frombits(ws.distBits[v]) {
						if key := a<<31 | int64(u); key < ws.parentArc[v] {
							ws.parentArc[v] = key
						}
					}
				}
			}
			for _, v := range touched {
				ws.dist[v] = math.Float64frombits(ws.distBits[v])
				if key := ws.parentArc[v]; key != noArc {
					ws.parent[v] = int32(key & tailMask)
				}
			}
			ws.parent[src] = src
			return
		}
		par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				u := touched[i]
				du := math.Float64frombits(ws.distBits[u])
				for a, end := g.Offsets[u], g.Offsets[u+1]; a < end; a++ {
					v := g.Adj[a]
					if du+g.W[a] == math.Float64frombits(ws.distBits[v]) {
						casMinInt64(&ws.parentArc[v], a<<31|int64(u))
					}
				}
			}
		})
		par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := touched[i]
				ws.dist[v] = math.Float64frombits(ws.distBits[v])
				if key := ws.parentArc[v]; key != noArc {
					ws.parent[v] = int32(key & tailMask)
				}
			}
		})
		ws.parent[src] = src
		return
	}
	par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := touched[i]
			du := math.Float64frombits(ws.distBits[u])
			for a, end := g.Offsets[u], g.Offsets[u+1]; a < end; a++ {
				v := g.Adj[a]
				if du+g.W[a] == math.Float64frombits(ws.distBits[v]) {
					casMinInt64(&ws.parentArc[v], a)
				}
			}
		}
	})
	par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := touched[i]
			ws.dist[u] = math.Float64frombits(ws.distBits[u])
			for a, end := g.Offsets[u], g.Offsets[u+1]; a < end; a++ {
				if ws.parentArc[g.Adj[a]] == a {
					ws.parent[g.Adj[a]] = u
				}
			}
		}
	})
	ws.parent[src] = src
}

func casMinInt64(addr *int64, v int64) {
	for {
		old := atomic.LoadInt64(addr)
		if old <= v || atomic.CompareAndSwapInt64(addr, old, v) {
			return
		}
	}
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	t := make([]int32, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}
