// Package bfs implements SNAP's breadth-first search kernels: a serial
// reference, the level-synchronous direction-optimizing BFS (serial
// top-down levels, parallel bottom-up sweeps), the multi-source
// fan-out and the bidirectional s-t search — thin entry points over the
// shared frontier.Engine, the traversal core the paper's centrality and
// community kernels build on for small-world networks (low diameter
// means few synchronization barriers).
package bfs

import (
	"sync"
	"sync/atomic"

	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/par"
)

// Result holds a BFS tree: hop distances and parents (both -1 when
// unreached, and Parent[src] == src).
type Result = frontier.Result

// Serial runs a textbook serial BFS through a pooled engine; the
// reference oracle for the direction-optimizing kernel, and the fast
// path for small fragments.
func Serial(g *graph.Graph, src int32, alive []bool) Result {
	e := frontier.AcquireEngine(g.NumVertices())
	defer frontier.ReleaseEngine(e)
	e.Run(g, src, alive, -1)
	return e.Export()
}

// DirectionOptimizing runs a direction-optimizing BFS (Beamer-style):
// levels expand top-down (frontier pushes to neighbors) while the
// frontier is small, and switch to bottom-up (unvisited vertices probe
// whether any neighbor is in the frontier) when the frontier covers a
// large fraction of the remaining edges. On small-world graphs the
// middle levels contain most of the graph, and bottom-up sweeps touch
// each unvisited vertex once instead of scanning the frontier's entire
// (huge) neighborhood. Top-down levels run the serial queue loop;
// par.Workers() goroutines split the bottom-up sweeps. Directed graphs
// run top-down throughout.
func DirectionOptimizing(g *graph.Graph, src int32) Result {
	e := frontier.AcquireEngine(g.NumVertices())
	defer frontier.ReleaseEngine(e)
	e.RunOptions(g, src, frontier.Options{MaxDepth: -1, Alpha: frontier.DefaultAlpha})
	return e.Export()
}

// MultiSourceWorkspace runs independent BFS traversals from each
// source across up to `workers` goroutines — the paper's "path-limited
// searches" coarse-grained paradigm — with each worker reusing one
// epoch-stamped Workspace, so the whole sweep allocates O(workers)
// scratch instead of O(len(sources)·n).
//
// visit(worker, i, ws) is invoked CONCURRENTLY (there is no global
// serialization): worker ids are stable
// and distinct in [0, workers), and each source index i is visited
// exactly once, so callers reduce without locking either into
// per-worker accumulators (indexed by worker) or into disjoint
// per-source slots (indexed by i). The workspace is owned by the
// worker; its contents are valid only for the duration of the call.
// maxDepth < 0 means unlimited; otherwise traversal stops after that
// many levels (path-limited search).
//
// Each traversal runs serially inside its worker with direction
// optimization enabled: every consumer reduces over distances (sums,
// counts, eccentricities), which are direction-independent, so the
// bottom-up sweeps through the dense middle levels of small-world
// graphs are a free win. Directed graphs fall back to top-down.
func MultiSourceWorkspace(g *graph.Graph, sources []int32, maxDepth int32, workers int, visit func(worker, i int, ws *Workspace)) {
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	if len(sources) == 0 {
		return
	}
	n := g.NumVertices()
	opt := frontier.Options{Workers: 1, MaxDepth: maxDepth, Alpha: frontier.DefaultAlpha}
	if workers <= 1 {
		ws := AcquireWorkspace(n)
		for i, src := range sources {
			ws.RunOptions(g, src, opt)
			visit(0, i, ws)
		}
		ReleaseWorkspace(ws)
		return
	}
	// Guided scheduling: workers claim one source at a time from a
	// shared counter (per-source BFS cost is irregular on skewed
	// graphs, so static chunking would load-imbalance).
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ws := AcquireWorkspace(n)
			defer ReleaseWorkspace(ws)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(sources) {
					return
				}
				ws.RunOptions(g, sources[i], opt)
				visit(w, i, ws)
			}
		}(w)
	}
	wg.Wait()
}
