package serve

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"snap/internal/bfs"
	"snap/internal/sssp"
)

// Request coalescing for single-source distance queries, the dominant
// workload of a graph-serving tier. Concurrent BFS (hop-distance) or
// SSSP (weighted-distance) requests that arrive within a small window
// are drained into one batch which:
//
//   - pins the epoch once (one Pin/Close pair instead of N),
//   - deduplicates sources (N requests for the same hot source run ONE
//     traversal and fan the extraction out),
//   - runs distinct sources through bfs.MultiSourceWorkspace, whose
//     per-worker pooled engines make the whole sweep allocate O(workers)
//     scratch instead of O(N·n) — the zero-alloc steady state — and
//   - occupies one admission slot for the whole batch, so a burst of
//     light queries can't starve heavy analytics of slots.
//
// Depth-limited BFS requests coalesce with unlimited ones: the batch
// runs every source to the deepest requested level and each waiter's
// view is masked down to its own bound. The frontier engine labels
// exactly the vertices at depth <= MaxDepth, and within one traversal
// the visitation order is depth-monotone, so masking (dist > bound →
// unreached, reached = prefix of the order within bound) reproduces
// the depth-limited traversal bit for bit.
//
// The window trades a bounded latency add (default 500µs) for that
// aggregation.

const (
	laneBFS = iota
	laneSSSP
	laneCount
)

// distWaiter is one in-flight distance query: its inputs, its slot in
// a batch, and the result fields the executor fills before closing
// done. dsts is a private copy — the request's parse scratch is pooled
// and returns to the pool while the waiter is still queued.
type distWaiter struct {
	src      int32
	maxDepth int32 // -1 = unlimited; BFS lane only
	dsts     []int32
	ctx      context.Context

	done    chan struct{}
	err     error
	seq     uint64
	hop     []int32   // BFS: per-dst hop distance, -1 unreached
	wdist   []float64 // SSSP: per-dst weighted distance, -1 unreached
	reached int
	ecc     int32
}

type coalescer struct {
	s *Server
	h *handle

	mu      sync.Mutex
	pending [laneCount][]*distWaiter
}

// distQuery answers one distance query, batched behind the coalescing
// window.
func (c *coalescer) distQuery(ctx context.Context, lane int, src, maxDepth int32, dsts []int32) (*distWaiter, error) {
	w := &distWaiter{
		src:      src,
		maxDepth: maxDepth,
		dsts:     append([]int32(nil), dsts...),
		ctx:      ctx,
		done:     make(chan struct{}),
	}
	if err := c.submit(lane, w); err != nil {
		return nil, err
	}
	select {
	case <-w.done:
		if w.err != nil {
			return nil, w.err
		}
		return w, nil
	case <-ctx.Done():
		// The batch executor may still fill w later; nobody reads it.
		return nil, ctx.Err()
	}
}

// submit queues w on a lane, arming the lane's flush timer when it is
// the first waiter. The pending queue doubles as the waiting room:
// when it exceeds the admission bound the request fast-fails instead
// of joining a batch the CPU is not keeping up with.
func (c *coalescer) submit(lane int, w *distWaiter) error {
	c.mu.Lock()
	if len(c.pending[lane]) >= maxWaiting {
		c.mu.Unlock()
		c.s.lim.rejected.Add(1)
		return errBusy
	}
	first := len(c.pending[lane]) == 0
	c.pending[lane] = append(c.pending[lane], w)
	c.mu.Unlock()
	if first {
		time.AfterFunc(c.s.cfg.CoalesceWindow, func() { c.fire(lane) })
	}
	return nil
}

func (c *coalescer) fire(lane int) {
	c.mu.Lock()
	batch := c.pending[lane]
	c.pending[lane] = nil
	c.mu.Unlock()
	if len(batch) > 0 {
		c.execute(lane, batch)
	}
}

func (c *coalescer) execute(lane int, batch []*distWaiter) {
	finish := func(ws []*distWaiter, err error) {
		for _, w := range ws {
			w.err = err
			close(w.done)
		}
	}
	// Drop waiters whose client already went away; their traversal
	// would be pure waste.
	live := batch[:0]
	for _, w := range batch {
		if err := w.ctx.Err(); err != nil {
			finish([]*distWaiter{w}, err)
			continue
		}
		live = append(live, w)
	}
	if len(live) == 0 {
		return
	}
	// One admission slot covers the whole batch. Blocking here is
	// deliberate: the batch aggregates many clients, and the pending
	// queue bound in submit already capped how much work can stack up.
	if err := c.s.lim.acquire(); err != nil {
		finish(live, err)
		return
	}
	defer c.s.lim.release()

	g, seq, release, err := c.h.pin()
	if err != nil {
		finish(live, err)
		return
	}
	defer release()

	// Source dedupe: one traversal per distinct source, results fanned
	// out to every waiter of that source.
	bySrc := make(map[int32][]*distWaiter, len(live))
	sources := make([]int32, 0, len(live))
	valid := 0
	for _, w := range live {
		if int(w.src) >= g.NumVertices() {
			finish([]*distWaiter{w}, errBadVertex)
			continue
		}
		valid++
		if bySrc[w.src] == nil {
			sources = append(sources, w.src)
		}
		bySrc[w.src] = append(bySrc[w.src], w)
	}
	if len(sources) == 0 {
		return
	}
	c.s.batches.Add(1)
	c.s.batchedReqs.Add(uint64(valid))
	c.s.dedupSaved.Add(uint64(valid - len(sources)))

	switch lane {
	case laneBFS:
		// Deepest requested bound wins; each waiter masks back down.
		eff := int32(0)
		for _, ws := range bySrc {
			for _, w := range ws {
				if w.maxDepth < 0 {
					eff = -1
				} else if eff >= 0 && w.maxDepth > eff {
					eff = w.maxDepth
				}
			}
		}
		bfs.MultiSourceWorkspace(g, sources, eff, c.s.workers(), func(_, i int, ws *bfs.Workspace) {
			for _, w := range bySrc[sources[i]] {
				w.seq = seq
				fillBFS(w, ws)
			}
		})
		for _, src := range sources {
			finish(bySrc[src], nil)
		}
	case laneSSSP:
		ws := sssp.AcquireWorkspace()
		defer sssp.ReleaseWorkspace(ws)
		for _, src := range sources {
			group := bySrc[src]
			cancel := func() bool { return allDone(group) }
			ws.Run(g, src, sssp.DeltaSteppingOptions{Workers: c.s.workers(), Cancel: cancel})
			if allDone(group) {
				finish(group, context.Canceled)
				continue
			}
			for _, w := range group {
				w.seq = seq
				fillSSSP(w, ws)
			}
			finish(group, nil)
		}
	}
}

// fillBFS extracts one waiter's view from a finished traversal that
// may have run deeper than the waiter asked: distances beyond the
// waiter's bound read as unreached, and the reached count is the
// prefix of the visitation order within the bound (the order is
// depth-monotone, so a binary search finds the cut).
func fillBFS(w *distWaiter, ws *bfs.Workspace) {
	bound := w.maxDepth
	w.hop = make([]int32, len(w.dsts))
	for j, d := range w.dsts {
		h := int32(-1)
		if int(d) < ws.Len() {
			h = ws.Dist(d)
			if bound >= 0 && h > bound {
				h = -1
			}
		}
		w.hop[j] = h
	}
	order := ws.Order()
	if bound < 0 || ws.MaxDist() <= bound {
		w.reached = len(order)
		w.ecc = ws.MaxDist()
		return
	}
	cut := sort.Search(len(order), func(i int) bool { return ws.Dist(order[i]) > bound })
	w.reached = cut
	w.ecc = ws.Dist(order[cut-1]) // cut >= 1: the source is at depth 0
}

func fillSSSP(w *distWaiter, ws *sssp.Workspace) {
	dist := ws.Dist()
	w.wdist = make([]float64, len(w.dsts))
	for j, d := range w.dsts {
		v := -1.0
		if int(d) < len(dist) && !math.IsInf(dist[d], 1) {
			v = dist[d]
		}
		w.wdist[j] = v
	}
	w.reached = len(ws.Reached())
}

func allDone(ws []*distWaiter) bool {
	for _, w := range ws {
		if w.ctx.Err() == nil {
			return false
		}
	}
	return true
}
