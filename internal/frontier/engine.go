package frontier

import (
	"sync/atomic"

	"snap/internal/graph"
	"snap/internal/par"
)

// Unreached marks vertices not reachable from the source.
const Unreached = int32(-1)

// Default direction-switching thresholds (Beamer et al., SC'12): expand
// bottom-up when the frontier's out-degree sum exceeds 1/Alpha of the
// unexplored edges, and return to top-down when the frontier shrinks
// below 1/Beta of the vertices.
const (
	DefaultAlpha = 14.0
	DefaultBeta  = 24.0
)

// Result holds a BFS tree: hop distances and parents (both -1 when
// unreached, and Parent[src] == src).
type Result struct {
	Dist   []int32
	Parent []int32
}

// MaxDist reports the eccentricity of the source in r (the largest
// finite distance), or 0 for an isolated source.
func (r Result) MaxDist() int32 {
	var mx int32
	for _, d := range r.Dist {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Reached reports the number of vertices reached (including the source).
func (r Result) Reached() int {
	c := 0
	for _, d := range r.Dist {
		if d != Unreached {
			c++
		}
	}
	return c
}

// Options configures one Engine traversal.
type Options struct {
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// Alive, when non-nil, restricts traversal to arcs whose edge id
	// has Alive[eid] == true (logical edge deletion, used by divisive
	// clustering). Honored by both directions: the two arcs of an
	// undirected edge share an id, and reverse CSRs preserve arc ids,
	// so the pull side filters the same edges the push side would.
	Alive []bool
	// MaxDepth bounds the traversal to that many levels (path-limited
	// search); < 0 means unlimited, 0 reaches only the source.
	MaxDepth int32
	// Alpha > 0 enables direction optimization: a level runs bottom-up
	// when frontierEdges·Alpha > unexploredEdges. Zero keeps the
	// traversal always top-down (the exact-parent serial semantics).
	Alpha float64
	// Beta sets the top-down resume threshold (frontier < n/Beta);
	// <= 0 means DefaultBeta.
	Beta float64
	// DegreeAware partitions top-down frontiers by out-degree sum
	// instead of vertex count — the paper's fix for skewed degrees.
	DegreeAware bool
	// Reverse supplies the in-adjacency CSR (graph.Reverse) that
	// bottom-up steps scan on directed graphs. When nil, directed
	// traversals silently fall back to always-top-down.
	Reverse *graph.Graph
	// ForceBottomUp, when non-nil, overrides the Alpha/Beta heuristic:
	// the level discovering depth d runs bottom-up iff
	// ForceBottomUp(d) (still subject to direction eligibility).
	// Testing hook for exercising switches at every level.
	ForceBottomUp func(depth int32) bool
	// Cancel, when non-nil, is polled once per level (the traversal's
	// natural synchronization point — small-world graphs have few
	// levels, so the poll adds no measurable cost). When it reports
	// true the traversal stops before expanding the next level and
	// RunOptions returns early with partial state: distances discovered
	// so far remain readable, but the run is incomplete and must not be
	// treated as a full BFS. The hook is how servers thread
	// context/deadline cancellation into the level-synchronous loop so
	// abandoned requests stop burning cores within one level.
	Cancel func() bool
}

// Engine is the shared level-synchronous traversal core: reusable
// epoch-stamped BFS state plus a direction-optimizing step loop.
// "Visited" is encoded by an epoch stamp — stamp[v] equals the current
// epoch iff v was reached by the most recent run — so resetting between
// sources is a single counter increment (O(1)) instead of an O(n)
// re-fill of the distance and parent arrays. Exact closeness on an
// n-vertex graph therefore touches O(reached) state per source instead
// of paying O(n) allocation + memset traffic per source.
//
// The stamp invariant is that every stamp value is at most the current
// epoch. When the uint32 epoch counter wraps around (once every 2^32-1
// traversals), stamps from the previous generation could otherwise
// collide with fresh epochs, so the wrap path zero-fills the stamp
// array once and restarts at epoch 1 — amortized cost ~n/2^32 per
// traversal.
//
// An Engine is not safe for concurrent use; acquire one per worker
// (see AcquireEngine). Accessor results are valid only until the next
// run or Resize.
type Engine struct {
	epoch  uint32
	stamp  []uint32 // stamp[v] == epoch ⇔ v visited by the latest run
	dist   []int32  // meaningful only where stamp[v] == epoch
	parent []int32  // meaningful only where stamp[v] == epoch
	order  []int32  // visited vertices in BFS order; order[0] = src
	bounds []int32  // level d occupies order[bounds[d]:bounds[d+1]]

	cur   Frontier  // current level in hybrid form
	nexts [][]int32 // per-worker discovery buffers (parallel steps)
	wbuf  []int64   // frontier weight scratch for DegreeAware
	claim []uint64  // parallel top-down claim keys; unclaimed between levels
}

// NewEngine returns an engine for graphs with n vertices.
func NewEngine(n int) *Engine {
	e := &Engine{}
	e.Resize(n)
	return e
}

// Resize prepares the engine for a graph with n vertices, reusing the
// existing arrays when they are large enough. Any previous traversal
// state is discarded.
func (e *Engine) Resize(n int) {
	if cap(e.dist) < n || cap(e.stamp) < n || cap(e.parent) < n {
		e.stamp = make([]uint32, n)
		e.dist = make([]int32, n)
		e.parent = make([]int32, n)
		e.epoch = 0
	} else {
		e.stamp = e.stamp[:n]
		e.dist = e.dist[:n]
		e.parent = e.parent[:n]
	}
	if e.order == nil {
		e.order = make([]int32, 0, 256)
	}
	e.order = e.order[:0]
	e.bounds = e.bounds[:0]
}

// Len reports the number of vertices the engine is sized for.
func (e *Engine) Len() int { return len(e.dist) }

// begin opens a new traversal epoch: O(1) except on uint32 wraparound,
// where the stamp array is cleared once so stale stamps from the
// previous generation cannot alias the new epoch sequence.
func (e *Engine) begin() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.stamp)
		e.epoch = 1
	}
	e.order = e.order[:0]
	e.bounds = e.bounds[:0]
}

// Run performs a serial always-top-down BFS from src, restricted to
// arcs whose edge id is alive (nil means all arcs) and to maxDepth
// levels (< 0 means unlimited — the paper's path-limited search
// otherwise). It produces exactly the distances and parents of the
// textbook queue loop, readable through Dist/Parent/Order until the
// next run. Shorthand for RunOptions with Workers 1 and Alpha 0.
func (e *Engine) Run(g *graph.Graph, src int32, alive []bool, maxDepth int32) {
	e.RunOptions(g, src, Options{Workers: 1, Alive: alive, MaxDepth: maxDepth})
}

// RunOptions performs a level-synchronous BFS from src under opt. Each
// level is expanded either top-down (frontier pushes to unvisited
// neighbors, serial or lock-free parallel with per-worker buffers) or
// bottom-up (unvisited vertices probe the frontier bitmap through
// their in-arcs), per the Alpha/Beta heuristic. Distances are
// direction-independent. Parents and the visit order depend on the
// direction of each level but never on the worker count: a top-down
// level yields the serial queue loop's parents and order at any worker
// count, a bottom-up level the first frontier in-neighbor in adjacency
// order, discovered in ascending vertex order.
func (e *Engine) RunOptions(g *graph.Graph, src int32, opt Options) {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	n := g.NumVertices()
	beta := opt.Beta
	if beta <= 0 {
		beta = DefaultBeta
	}
	// Bottom-up needs in-adjacency: the graph itself when undirected,
	// an explicit reverse CSR when directed, else top-down only.
	pull := g
	if g.Directed() {
		pull = opt.Reverse
	}
	eligible := pull != nil && (opt.Alpha > 0 || opt.ForceBottomUp != nil)

	e.begin()
	ep := e.epoch
	e.stamp[src] = ep
	e.dist[src] = 0
	e.parent[src] = src
	e.order = append(e.order, src)
	e.bounds = append(e.bounds, 0, 1)

	// Lazy degree-sum accounting for the direction heuristic: explored
	// covers the out-degrees of order[:sumPos], advanced only when a
	// switch is actually considered. Traversals that never near a switch
	// (ineligible, or frontiers that stay thin) pay nothing per
	// discovery, keeping always-top-down and direction-optimizing runs
	// cost-identical on graphs where bottom-up never engages.
	totalArcs := int64(g.NumArcs())
	var explored int64
	sumPos := 0
	sumTo := func(hi int) {
		for ; sumPos < hi; sumPos++ {
			v := e.order[sumPos]
			explored += g.Offsets[v+1] - g.Offsets[v]
		}
	}
	levelEdges := func(lo, hi int) int64 {
		var s int64
		for _, v := range e.order[lo:hi] {
			s += g.Offsets[v+1] - g.Offsets[v]
		}
		return s
	}

	levelStart, levelEnd := 0, 1
	prevSize := 0
	bottomUp := false
	for depth := int32(0); levelEnd > levelStart; depth++ {
		if opt.MaxDepth >= 0 && depth >= opt.MaxDepth {
			break
		}
		if opt.Cancel != nil && opt.Cancel() {
			break
		}
		size := levelEnd - levelStart
		if eligible {
			if opt.ForceBottomUp != nil {
				bottomUp = opt.ForceBottomUp(depth + 1)
			} else if !bottomUp {
				// Beamer's C_BT, with three cheap guards evaluated
				// before the degree sums are touched. The frontier must
				// be growing: on high-diameter graphs the shrinking
				// tail frontiers eventually dominate the unexplored
				// remainder, yet pull sweeps would rescan all of V
				// every level. It must exceed the Beta switch-back
				// threshold, or the very next level would flip straight
				// back (hysteresis — stops one-off O(n) sweeps for
				// sparse tail up-ticks). And its out-arcs must
				// outnumber the unvisited vertices, because a pull
				// sweep by construction touches every unvisited vertex
				// at least once: mesh-like frontiers never cover that,
				// and hub bursts on skewed graphs are deferred one
				// level until the frontier's reach actually spans the
				// remaining graph. Only then the Beamer test proper:
				// frontierEdges·Alpha > unexploredEdges.
				bottomUp = false
				if size > prevSize && float64(size)*beta >= float64(n) {
					sumTo(levelEnd)
					curEdges := levelEdges(levelStart, levelEnd)
					bottomUp = curEdges > int64(n-levelEnd) &&
						float64(curEdges)*opt.Alpha > float64(totalArcs-explored)
				}
			} else {
				bottomUp = float64(size)*beta >= float64(n)
			}
		}
		if bottomUp {
			e.cur.SetSparse(e.order[levelStart:levelEnd], levelEdges(levelStart, levelEnd))
			e.stepBottomUp(g, pull, opt.Alive, depth+1, workers)
		} else if workers <= 1 || size <= 1 {
			e.stepTopDownSerial(g, opt.Alive, depth+1, levelStart, levelEnd)
		} else {
			e.stepTopDownParallel(g, opt.Alive, depth+1, levelStart, levelEnd, workers, opt.DegreeAware)
		}
		levelStart, levelEnd = levelEnd, len(e.order)
		if levelEnd > levelStart {
			e.bounds = append(e.bounds, int32(levelEnd))
		}
		prevSize = size
	}
}

// stepTopDownSerial expands order[lo:hi] in place — the textbook queue
// loop, restricted to one level so its results are bit-identical to
// the classic serial BFS.
func (e *Engine) stepTopDownSerial(g *graph.Graph, alive []bool, depth int32, lo, hi int) {
	ep := e.epoch
	stamp, dist, parent := e.stamp, e.dist, e.parent
	order := e.order
	for i := lo; i < hi; i++ {
		v := order[i]
		alo, ahi := g.Offsets[v], g.Offsets[v+1]
		for a := alo; a < ahi; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			u := g.Adj[a]
			if stamp[u] != ep {
				stamp[u] = ep
				dist[u] = depth
				parent[u] = v
				order = append(order, u)
			}
		}
	}
	e.order = order
}

// stepTopDownParallel expands order[lo:hi] across workers and produces
// exactly the serial arm's level: the same parents and the same visit
// order. The serial queue loop gives u to the first frontier vertex, in
// frontier order, that has an arc to it, and discovers vertices in
// (frontier position, arc) order. Two passes reproduce that without
// locks. The claim pass CAS-mins the packed key (frontier position,
// arc offset) of every arc into claim[u]. After a barrier, the emit pass
// walks the same arcs again; the one arc whose key won is u's
// discovery, so its worker stamps u, sets its parent and appends it.
// Workers own contiguous ascending frontier ranges, so merging their
// buffers in worker order yields the serial order. Each emitted vertex
// resets its claim slot, keeping claim all-unclaimed between levels.
func (e *Engine) stepTopDownParallel(g *graph.Graph, alive []bool, depth int32, lo, hi int, workers int, degreeAware bool) {
	ep := e.epoch
	stamp, dist, parent := e.stamp, e.dist, e.parent
	front := e.order[lo:hi]
	if workers > len(front) {
		workers = len(front)
	}
	e.prepareWorkers(workers)
	if n := len(stamp); len(e.claim) < n {
		e.claim = make([]uint64, n)
		for i := range e.claim {
			e.claim[i] = unclaimed
		}
	}
	claim := e.claim
	claimPass := func(_, flo, fhi int) {
		for i := flo; i < fhi; i++ {
			v := front[i]
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			for a := alo; a < ahi; a++ {
				if alive != nil && !alive[g.EID[a]] {
					continue
				}
				u := g.Adj[a]
				if stamp[u] == ep {
					continue
				}
				key := uint64(i)<<32 | uint64(a-alo)
				for {
					c := atomic.LoadUint64(&claim[u])
					if c <= key || atomic.CompareAndSwapUint64(&claim[u], c, key) {
						break
					}
				}
			}
		}
	}
	emitPass := func(w, flo, fhi int) {
		next := e.nexts[w][:0]
		for i := flo; i < fhi; i++ {
			v := front[i]
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			for a := alo; a < ahi; a++ {
				if alive != nil && !alive[g.EID[a]] {
					continue
				}
				u := g.Adj[a]
				if atomic.LoadUint64(&claim[u]) == uint64(i)<<32|uint64(a-alo) {
					atomic.StoreUint64(&claim[u], unclaimed)
					stamp[u] = ep
					dist[u] = depth
					parent[u] = v
					next = append(next, u)
				}
			}
		}
		e.nexts[w] = next
	}
	if degreeAware {
		wbuf := e.wbuf[:0]
		for _, v := range front {
			wbuf = append(wbuf, g.Offsets[v+1]-g.Offsets[v])
		}
		e.wbuf = wbuf
		par.ForDegreeAware(wbuf, workers, claimPass)
		par.ForDegreeAware(wbuf, workers, emitPass)
	} else {
		par.ForChunkedN(len(front), workers, claimPass)
		par.ForChunkedN(len(front), workers, emitPass)
	}
	e.merge(workers)
}

// unclaimed is the empty claim slot: larger than every packed
// (frontier position, arc offset) key.
const unclaimed = ^uint64(0)

// stepBottomUp discovers the next level by scanning unvisited vertices:
// each probes its in-arcs (pull's adjacency) for a member of the
// frozen frontier bitmap and adopts the first alive one as parent.
// Writes are owner-only per vertex, so chunks need no atomics, and the
// parent choice is adjacency-order deterministic regardless of worker
// count.
func (e *Engine) stepBottomUp(g, pull *graph.Graph, alive []bool, depth int32, workers int) {
	n := g.NumVertices()
	e.cur.Densify(n)
	cur := &e.cur
	ep := e.epoch
	stamp, dist, parent := e.stamp, e.dist, e.parent
	if workers <= 1 {
		// Inline single-worker sweep: the pull loop is the hot path of
		// serial direction-optimizing traversals (multi-source kernels),
		// so it must not pay scheduler or closure overhead per level.
		order := e.order
		for vi := 0; vi < n; vi++ {
			if stamp[vi] == ep {
				continue
			}
			alo, ahi := pull.Offsets[vi], pull.Offsets[vi+1]
			for a := alo; a < ahi; a++ {
				if alive != nil && !alive[pull.EID[a]] {
					continue
				}
				if cur.Has(pull.Adj[a]) {
					stamp[vi] = ep
					dist[vi] = depth
					parent[vi] = pull.Adj[a]
					order = append(order, int32(vi))
					break
				}
			}
		}
		e.order = order
		return
	}
	e.prepareWorkers(workers)
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		next := e.nexts[w][:0]
		for vi := lo; vi < hi; vi++ {
			if stamp[vi] == ep {
				continue
			}
			alo, ahi := pull.Offsets[vi], pull.Offsets[vi+1]
			for a := alo; a < ahi; a++ {
				if alive != nil && !alive[pull.EID[a]] {
					continue
				}
				if cur.Has(pull.Adj[a]) {
					stamp[vi] = ep
					dist[vi] = depth
					parent[vi] = pull.Adj[a]
					next = append(next, int32(vi))
					break
				}
			}
		}
		e.nexts[w] = next
	})
	e.merge(workers)
}

// prepareWorkers sizes and empties the per-worker discovery buffers.
// The reset matters: schedulers may skip a worker entirely (an empty
// degree-aware range), and merge must not pick up its previous level.
func (e *Engine) prepareWorkers(workers int) {
	for len(e.nexts) < workers {
		e.nexts = append(e.nexts, make([]int32, 0, 256))
	}
	for w := 0; w < workers; w++ {
		e.nexts[w] = e.nexts[w][:0]
	}
}

// merge appends the per-worker buffers to the visitation order (worker
// index order keeps bottom-up levels sorted by vertex id).
func (e *Engine) merge(workers int) {
	for w := 0; w < workers; w++ {
		e.order = append(e.order, e.nexts[w]...)
	}
}

// Visited reports whether v was reached by the latest run.
func (e *Engine) Visited(v int32) bool {
	return e.epoch != 0 && e.stamp[v] == e.epoch
}

// Dist reports the hop distance of v from the latest source, or
// Unreached.
func (e *Engine) Dist(v int32) int32 {
	if !e.Visited(v) {
		return Unreached
	}
	return e.dist[v]
}

// Parent reports the BFS-tree parent of v (the source is its own
// parent), or -1 when unreached.
func (e *Engine) Parent(v int32) int32 {
	if !e.Visited(v) {
		return -1
	}
	return e.parent[v]
}

// DistData exposes the raw distance array. dist[v] is meaningful only
// where Visited(v); stale entries from earlier epochs are arbitrary.
// For kernels (e.g. the Brandes forward pass) that only read distances
// of vertices known to be reached.
func (e *Engine) DistData() []int32 { return e.dist }

// Order returns the vertices reached by the latest run in BFS
// visitation order (source first, distances non-decreasing). Read-only;
// valid until the next run.
func (e *Engine) Order() []int32 { return e.order }

// NumLevels reports the number of BFS levels of the latest run
// (eccentricity + 1), or 0 before any run.
func (e *Engine) NumLevels() int {
	if len(e.bounds) == 0 {
		return 0
	}
	return len(e.bounds) - 1
}

// Level returns the vertices at hop distance d, a window of Order().
// The engine maintains level boundaries as the traversal runs, so
// kernels that walk levels (iFUB fringes, Brandes dependency sweeps)
// need no distance-bucketing pass of their own.
func (e *Engine) Level(d int32) []int32 {
	return e.order[e.bounds[d]:e.bounds[d+1]]
}

// Reached reports the number of vertices reached (including the
// source) — O(1), unlike Result.Reached.
func (e *Engine) Reached() int { return len(e.order) }

// MaxDist reports the eccentricity of the latest source in O(1): BFS
// visits vertices in non-decreasing distance order, so the last vertex
// of the visitation order is a farthest one.
func (e *Engine) MaxDist() int32 {
	if len(e.order) == 0 {
		return 0
	}
	return e.dist[e.order[len(e.order)-1]]
}

// SumDist reports the total hop distance from the latest source to
// every reached vertex in O(reached) — the closeness denominator.
func (e *Engine) SumDist() int64 {
	var total int64
	for _, v := range e.order {
		total += int64(e.dist[v])
	}
	return total
}

// Export materializes the latest traversal as a dense, caller-owned
// Result (allocates two O(n) arrays — the compatibility path for code
// that retains full distance vectors).
func (e *Engine) Export() Result {
	n := len(e.dist)
	r := Result{Dist: make([]int32, n), Parent: make([]int32, n)}
	for i := range r.Dist {
		r.Dist[i] = Unreached
		r.Parent[i] = -1
	}
	for _, v := range e.order {
		r.Dist[v] = e.dist[v]
		r.Parent[v] = e.parent[v]
	}
	return r
}

// enginePool amortizes engines across kernel invocations: closeness,
// diameter, average path length, connected components, and the GN
// split check all borrow from the same pool, so back-to-back analyses
// on same-sized graphs reach allocation-free steady state.
var enginePool = par.NewPool(func() *Engine { return &Engine{} })

// AcquireEngine returns a pooled engine sized for n vertices. Release
// it with ReleaseEngine when the traversal loop ends.
func AcquireEngine(n int) *Engine {
	e := enginePool.Get()
	e.Resize(n)
	return e
}

// ReleaseEngine returns an engine to the pool. The caller must not use
// e (or results read from it) afterwards.
func ReleaseEngine(e *Engine) { enginePool.Put(e) }
