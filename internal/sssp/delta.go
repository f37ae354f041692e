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
)

// Workspace is the reusable state of the delta-stepping engine.
// Acquire one with AcquireWorkspace, call Run per source, and read the
// results through Dist/Parent/Result; after a warm-up run on a given
// graph, repeated sources allocate nothing. Between runs the vertex-
// indexed arrays satisfy a clean invariant (dist +Inf, parent -1,
// distBits infBits) restored sparsely — O(touched), not O(n) — from
// the previous run's reach set, mirroring the epoch-stamped traversal
// workspaces. Not safe for concurrent use.
type Workspace struct {
	// Outputs of the last Run (clean invariant between runs).
	dist   []float64
	parent []int32

	// Relaxation state (clean invariant between runs).
	distBits []uint64 // atomic float64 bit casts
	touched  []int32  // vertices reached by the last run

	// Max edge weight, computed once per run and cached per graph: it
	// feeds both the default delta heuristic and the window size.
	cachedMaxWG *graph.Graph
	cachedMaxW  float64

	// Cyclic bucket window and overflow.
	slots [][]int32
	far   []int32

	// Bucket processing scratch.
	live   []int32
	stampD []uint32 // drain dedup stamps
	epochD uint32

	// Per-worker insertion buffers.
	wk []deltaWorker

	// Phase-merge scratch (union of touched slots).
	unionSlots []int32
	slotStamp  []uint32
	slotEpoch  uint32

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
		ws.stampD = make([]uint32, cap(ws.dist))
		ws.epochD = 0
	}
	ws.dist = ws.dist[:n]
	ws.parent = ws.parent[:n]
	ws.distBits = ws.distBits[:n]
	ws.stampD = ws.stampD[:n]
}

// reset restores the clean invariant from the previous run's reach set.
func (ws *Workspace) reset() {
	for _, v := range ws.touched {
		ws.dist[v] = Inf
		ws.parent[v] = -1
		ws.distBits[v] = infBits
	}
	ws.touched = ws.touched[:0]
}

// maxWeight returns the maximum edge weight of g, cached per graph:
// both the delta heuristic and the cyclic window size use it.
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

// Stats is the engine's record of one Run: point
// DeltaSteppingOptions.Stats at one and read it after Run returns. Run
// zeroes it first; the unweighted path leaves it zero. Fixed-size and
// caller-owned; nil is off, and recording steers nothing. Counts are
// added once per phase, from the drain's lengths and the live degrees.
type Stats struct {
	// Buckets counts bucket drains; Phases the passes over a bucket's
	// slot, each one drain plus one relax loop, so Phases/Buckets is the
	// mean number of times a bucket refilled itself.
	Buckets, Phases int64
	// Drained counts slot entries drained; Dropped those dropped as
	// stale or same-batch duplicates; Visits the live vertices left,
	// Drained − Dropped; Arcs every out-arc of every visit. A vertex
	// visited twice was drained before its distance was final.
	Drained, Dropped, Visits, Arcs int64
	// FarRedistributions counts the times the window ran dry and the
	// far list was redistributed.
	FarRedistributions int64
}

// record adds one phase: drained slot entries and the live vertices the
// stale and duplicate drops left.
func (st *Stats) record(g *graph.Graph, drained int, live []int32) {
	st.Phases++
	st.Drained += int64(drained)
	st.Dropped += int64(drained - len(live))
	st.Visits += int64(len(live))
	for _, v := range live {
		st.Arcs += g.Offsets[v+1] - g.Offsets[v]
	}
}

// deltaRun is the per-run view of the engine: immutable parameters plus
// the window base and current bucket (both fixed for the duration of
// any parallel phase). The window covers absolute buckets
// [base, base+k); base <= cur <= base+k always holds, and base only
// advances in redistributeFar once every window slot has drained.
type deltaRun struct {
	ws      *Workspace
	g       *graph.Graph
	delta   float64
	k       int64
	base    int64
	cur     int64
	queued  int64
	workers int
	stats   *Stats
}

// Run computes SSSP from src into the workspace. Results are exposed
// through Dist/Parent/Result and stay valid until the next Run.
//
// Dist is bit-identical to Dijkstra for any delta and worker count:
// both algorithms converge to the unique least fixed point of
// dist[v] = min over arcs (u,v) of fl(dist[u] + w), evaluated in the
// same float64 arithmetic. Parent follows a deterministic documented
// tie-break: Parent[v] is the tail of the minimum-index arc a with
// dist[tail(a)] + w[a] == dist[v]. Arcs are numbered row-major, so that
// is the smallest certifying tail. At Workers 1 the relax loop keeps
// it: a strict improvement sets the tail, an exact tie keeps the
// smaller one. fl(·+w) is monotone, so an offer equal to the final
// dist[v] comes only from a certifying tail, and every certifying tail
// relaxes its arcs once its own distance is final. At Workers > 1,
// where relaxations race, a CAS-min sweep over the reached subgraph
// resolves it in finalize.
//
// Unweighted graphs (g.W == nil) skip the bucket machinery: every edge
// weighs 1, delta-stepping degenerates to level-synchronous BFS, and
// the traversal runs on the shared direction-optimizing frontier
// engine instead.
func (ws *Workspace) Run(g *graph.Graph, src int32, opt DeltaSteppingOptions) {
	n := g.NumVertices()
	ws.reset() // restore the clean invariant before any resize can shrink the arrays
	ws.resize(n)
	if opt.Stats != nil {
		*opt.Stats = Stats{}
	}
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
	k := maxSlots
	if ratio := maxW / delta; ratio < float64(maxSlots-2) {
		k = int64(math.Ceil(ratio)) + 2
	}
	ws.sizeBuckets(k, workers)

	r := &ws.run
	*r = deltaRun{ws: ws, g: g, delta: delta, k: k, workers: workers, stats: opt.Stats}
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
		// NOT advanced past a drained bucket: a heavy arc (w > delta)
		// can round fl(dv+w) back into bucket cur when dv sits just
		// below the bucket's upper edge, and slot cur%k next recurs at
		// bucket cur+k — outside the window — so skipping it would
		// strand the entry (hanging the queued count, or dropping the
		// improved vertex's relaxations as stale). processBucket
		// re-drains the slot until it stays empty, and the scan
		// rechecks it from cur.
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
	*r = deltaRun{} // drop the graph and Stats references while pooled
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
	*r = deltaRun{}
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
// this phase are visited. Only the Workers > 1 arm calls it. Returns
// the number of entries added.
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

// processBucket drains bucket cur until it stays empty. A phase drains
// the slot, drops stale entries (the vertex was re-relaxed into another
// bucket after this entry was queued) and same-batch duplicates, and
// relaxes every out-arc of each live vertex; light arcs (w <= delta)
// may refill the slot. There is no separate heavy phase: a vertex
// drained before its distance is final relaxes its heavy arcs in vain,
// but nearly every first visit already holds the final distance, so
// that costs less than a second visit of every settled vertex.
func (r *deltaRun) processBucket() {
	ws := r.ws
	g := r.g
	s := r.cur % r.k
	if r.stats != nil {
		r.stats.Buckets++
	}
	for len(ws.slots[s]) > 0 {
		entries := ws.slots[s]
		ws.slots[s] = entries[:0]
		r.queued -= int64(len(entries))
		epochD := nextEpoch(&ws.epochD, ws.stampD)
		live := ws.live[:0]
		for _, v := range entries {
			if bucketOf(math.Float64frombits(ws.distBits[v]), r.delta) != r.cur {
				continue
			}
			if ws.stampD[v] == epochD {
				continue
			}
			ws.stampD[v] = epochD
			live = append(live, v)
		}
		ws.live = live
		if r.stats != nil {
			r.stats.record(g, len(entries), live)
		}
		if len(live) == 0 {
			continue
		}
		// The workers == 1 arm is cheaper than the parallel closure: no
		// atomics, the improvement test inlined so non-improving arcs
		// never pay a call, entries appended straight into the slots
		// (no insertion buffers, no merge), parents kept as it relaxes,
		// and no func literal evaluated (closures passed to par escape,
		// and one allocation per phase would break the zero-allocation
		// steady state).
		if r.workers == 1 {
			for _, v := range live {
				dv := math.Float64frombits(ws.distBits[v])
				for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
					u := g.Adj[a]
					nd := dv + g.W[a]
					bits := math.Float64bits(nd)
					old := ws.distBits[u]
					if old > bits {
						r.commitSerial(u, nd, bits, old)
						ws.parent[u] = v
					} else if old == bits && v < ws.parent[u] {
						// An offer equal to u's distance certifies it; keep
						// the smaller tail. An unreached u's parent -1 is
						// below every tail, so an offer that overflowed to
						// +Inf never parents it.
						ws.parent[u] = v
					}
				}
			}
		} else {
			par.ForChunkedN(len(live), r.workers, func(w, lo, hi int) {
				wk := &ws.wk[w]
				for i := lo; i < hi; i++ {
					v := live[i]
					dv := math.Float64frombits(atomic.LoadUint64(&ws.distBits[v]))
					for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
						r.relax(wk, g.Adj[a], dv+g.W[a])
					}
				}
			})
			r.queued += r.merge()
		}
	}
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
	if r.stats != nil {
		r.stats.FarRedistributions++
	}
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
// and, at Workers > 1, resolves deterministic parents in the same sweep
// over the reached vertices (the Workers-1 relax loop already kept
// them); see finalizeRange.
func (r *deltaRun) finalize(src int32) {
	ws := r.ws
	touched := ws.touched
	if r.workers == 1 {
		r.finalizeRange(touched)
	} else {
		par.ForChunkedN(len(touched), r.workers, func(_, lo, hi int) {
			r.finalizeRange(touched[lo:hi])
		})
	}
	ws.parent[src] = src
}

// finalizeRange converts the distance bits of the reached vertices us
// and, at Workers > 1, offers each u in us as the parent of every
// out-neighbor v its arc certifies (dist[u] + w == dist[v], exact float
// equality — the arc of the last successful relaxation always
// qualifies) by CAS-minning u into parent[v], where -1 (unset) compares
// as uint32 above every vertex. Arcs are numbered row-major, so among
// the arcs certifying v the minimum index has the minimum tail: the
// smallest certifying tail is the documented minimum-index parent, at
// any arc count. On an undirected graph the out-arc u→v mirrors the
// in-arc v←u with the same weight, so the same sweep covers both.
func (r *deltaRun) finalizeRange(us []int32) {
	ws := r.ws
	g := r.g
	for _, u := range us {
		du := math.Float64frombits(ws.distBits[u])
		ws.dist[u] = du
		if r.workers == 1 {
			continue
		}
		for a, end := g.Offsets[u], g.Offsets[u+1]; a < end; a++ {
			v := g.Adj[a]
			// An unreached v (infBits) has no parent, even where du+w
			// overflows to +Inf; it is not in touched, so reset would
			// never clear a tail written here.
			if dv := ws.distBits[v]; dv == infBits || du+g.W[a] != math.Float64frombits(dv) {
				continue
			}
			p := &ws.parent[v]
			for {
				old := atomic.LoadInt32(p)
				if uint32(old) <= uint32(u) || atomic.CompareAndSwapInt32(p, old, u) {
					break
				}
			}
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
