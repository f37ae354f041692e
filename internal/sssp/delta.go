package sssp

import (
	"math"

	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/par"
)

// The delta-stepping engine. One goroutine relaxes: dist itself is the
// relaxation state, so an improvement is a plain compare and store and
// a vertex's first touch is its distance leaving +Inf. Buckets are a
// cyclic array of k = ceil(maxW/delta)+2 slots indexed by
// floor(d/delta) mod k — any relaxation from the current bucket lands
// within the window [base, base+k), so slots are recycled as the
// traversal advances (a bounded `far` list absorbs the overflow when a
// tiny delta would need more slots than the cap; the base only jumps
// forward when the window has fully drained, so no pending bucket can
// ever be skipped). Relaxations append straight into the slots. See
// DESIGN.md section 5e.

// maxSlots caps the cyclic bucket window; bucket indices at or past
// the window go to the far list and are redistributed when the window
// catches up. 2^14 slot headers cost 384 KiB per workspace.
const maxSlots = int64(1) << 14

// Workspace is the reusable state of the delta-stepping engine.
// Acquire one with AcquireWorkspace, call Run per source, and read the
// results through Dist/Parent/Result; after a warm-up run on a given
// graph, repeated sources allocate nothing. Between runs the vertex-
// indexed arrays satisfy a clean invariant (dist +Inf, parent -1)
// restored sparsely — O(touched), not O(n) — from the previous run's
// reach set, mirroring the epoch-stamped traversal workspaces. Not
// safe for concurrent use.
type Workspace struct {
	// Outputs of the last Run and the relaxation state of the current
	// one (clean invariant between runs).
	dist    []float64
	parent  []int32
	touched []int32 // vertices reached by the last run

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
		for i := range ws.dist {
			ws.dist[i] = Inf
		}
		ws.parent = make([]int32, n)
		for i := range ws.parent {
			ws.parent[i] = -1
		}
		ws.stampD = make([]uint32, n)
		ws.epochD = 0
	}
	ws.dist = ws.dist[:n]
	ws.parent = ws.parent[:n]
	ws.stampD = ws.stampD[:n]
}

// reset restores the clean invariant from the previous run's reach set.
func (ws *Workspace) reset() {
	for _, v := range ws.touched {
		ws.dist[v] = Inf
		ws.parent[v] = -1
	}
	ws.touched = ws.touched[:0]
}

// maxWeight returns the maximum edge weight of g, cached per graph:
// both the delta heuristic and the cyclic window size use it.
func (ws *Workspace) maxWeight(g *graph.Graph) float64 {
	if ws.cachedMaxWG != g {
		mx := 0.0
		for _, w := range g.W {
			if w > mx {
				mx = w
			}
		}
		ws.cachedMaxWG = g
		ws.cachedMaxW = mx
	}
	return ws.cachedMaxW
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
// the window base and current bucket. The window covers absolute
// buckets [base, base+k); base <= cur <= base+k always holds, and base
// only advances in redistributeFar once every window slot has drained.
type deltaRun struct {
	ws     *Workspace
	g      *graph.Graph
	delta  float64
	k      int64
	base   int64
	cur    int64
	queued int64
	stats  *Stats
}

// Run computes SSSP from src into the workspace. Results are exposed
// through Dist/Parent/Result and stay valid until the next Run. Edge
// weights must be finite and non-negative: the graph readers and
// graph.Validate reject any other, graph.Build does not check.
//
// Dist is bit-identical to Dijkstra for any delta: both algorithms
// converge to the unique least fixed point of
// dist[v] = min over arcs (u,v) of fl(dist[u] + w), evaluated in the
// same float64 arithmetic. Parent follows a deterministic documented
// tie-break: Parent[v] is the tail of the minimum-index arc a with
// dist[tail(a)] + w[a] == dist[v]. Arcs are numbered row-major, so that
// is the smallest certifying tail. The relax loop keeps it: a strict
// improvement sets the tail, an exact tie keeps the smaller one.
// fl(·+w) is monotone, so an offer equal to the final dist[v] comes
// only from a certifying tail, and every certifying tail relaxes its
// arcs once its own distance is final.
//
// Weighted runs relax on the calling goroutine whatever
// opt.Workers says. Unweighted graphs (g.W == nil) skip the bucket
// machinery: every edge weighs 1, delta-stepping degenerates to
// level-synchronous BFS, and the traversal runs on the shared
// direction-optimizing frontier engine, whose bottom-up sweeps use
// opt.Workers.
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
	if g.W == nil {
		ws.runUnweighted(g, src, opt.Workers, opt.Cancel)
		return
	}
	maxW := ws.maxWeight(g)
	delta := opt.Delta
	if !(delta > 0) {
		delta = defaultDeltaFor(g, maxW)
	}
	k := maxSlots
	if ratio := maxW / delta; ratio < float64(maxSlots-2) {
		k = int64(math.Ceil(ratio)) + 2
	}
	for int64(len(ws.slots)) < k {
		ws.slots = append(ws.slots, nil)
	}

	r := deltaRun{ws: ws, g: g, delta: delta, k: k, stats: opt.Stats}
	ws.dist[src] = 0
	ws.touched = append(ws.touched, src)
	ws.slots[0] = append(ws.slots[0][:0], src)
	r.queued = 1

	for r.queued > 0 {
		if opt.Cancel != nil && opt.Cancel() {
			ws.abort()
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
	ws.parent[src] = src
}

// abort cleans up a cancelled run: the bucket window and overflow list
// may still hold entries (a completed run drains both), and leaving
// them behind would leak ghost work into the workspace's next Run. The
// touched list is complete at every phase boundary — the only points
// Run polls Cancel — so reset's sparse clean-state restore stays exact.
func (ws *Workspace) abort() {
	for i := range ws.slots {
		ws.slots[i] = ws.slots[i][:0]
	}
	ws.far = ws.far[:0]
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
		// The drain copies the live entries out before the relax loop
		// appends to the same slot, so a requeue cannot overwrite an
		// entry not yet read.
		entries := ws.slots[s]
		ws.slots[s] = entries[:0]
		r.queued -= int64(len(entries))
		epochD := nextEpoch(&ws.epochD, ws.stampD)
		live := ws.live[:0]
		for _, v := range entries {
			if bucketOf(ws.dist[v], r.delta) != r.cur || ws.stampD[v] == epochD {
				continue
			}
			ws.stampD[v] = epochD
			live = append(live, v)
		}
		ws.live = live
		if r.stats != nil {
			r.stats.record(g, len(entries), live)
		}
		// Distances are non-negative, so float order is total here; the
		// improvement test is inlined so non-improving arcs never pay a
		// call.
		for _, v := range live {
			dv := ws.dist[v]
			for a, end := g.Offsets[v], g.Offsets[v+1]; a < end; a++ {
				u := g.Adj[a]
				nd := dv + g.W[a]
				if du := ws.dist[u]; du > nd {
					r.improve(u, nd, du)
					ws.parent[u] = v
				} else if du == nd && v < ws.parent[u] {
					// An offer equal to u's distance certifies it; keep
					// the smaller tail. An unreached u's parent -1 is
					// below every tail, so an offer that overflowed to
					// +Inf never parents it.
					ws.parent[u] = v
				}
			}
		}
	}
}

// improve lowers u's distance from old to nd (old > nd), recording its
// first touch and queueing it in its bucket's slot or the far list.
func (r *deltaRun) improve(u int32, nd, old float64) {
	ws := r.ws
	ws.dist[u] = nd
	if old == Inf {
		ws.touched = append(ws.touched, u)
	}
	b := bucketOf(nd, r.delta)
	if b >= r.base+r.k {
		ws.far = append(ws.far, u)
	} else {
		s := b % r.k
		ws.slots[s] = append(ws.slots[s], u)
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
// still holds work — the overflow condition in improve is b >= base+k,
// and cur never passes base+k without landing here first.
func (r *deltaRun) redistributeFar() {
	ws := r.ws
	if r.stats != nil {
		r.stats.FarRedistributions++
	}
	minB := int64(math.MaxInt64)
	for _, v := range ws.far {
		b := bucketOf(ws.dist[v], r.delta)
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
		b := bucketOf(ws.dist[v], r.delta)
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
