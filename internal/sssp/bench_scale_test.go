package sssp

import (
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/par"
)

// benchScale returns the RMAT scale for the weighted SSSP benchmarks:
// SNAP_BENCH_SCALE when set, else 14 under -short (CI smoke) and 18
// for a full run (the EXPERIMENTS.md numbers).
func benchScale(tb testing.TB) int {
	if s := os.Getenv("SNAP_BENCH_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			tb.Fatalf("bad SNAP_BENCH_SCALE %q: %v", s, err)
		}
		return v
	}
	if testing.Short() {
		return 14
	}
	return 18
}

func weightedRMAT(scale int) *graph.Graph {
	n := 1 << scale
	return generate.RandomWeights(generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1), 10, 2)
}

// BenchmarkDeltaSteppingRMAT measures one full delta-stepping run per
// op (fresh Result arrays) on a weighted RMAT instance, at the default
// delta and worker count.
func BenchmarkDeltaSteppingRMAT(b *testing.B) {
	g := weightedRMAT(benchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(g, 0, DeltaSteppingOptions{})
	}
}

// BenchmarkDijkstraRMAT is the serial binary-heap reference on the same
// instance, for context next to the delta-stepping numbers.
func BenchmarkDijkstraRMAT(b *testing.B) {
	g := weightedRMAT(benchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

// BenchmarkDeltaSteppingSources runs many sources back to back the way
// the weighted analytics consume SSSP; steady-state allocations per
// source are the tracked metric.
func BenchmarkDeltaSteppingSources(b *testing.B) {
	g := weightedRMAT(benchScale(b) - 4)
	sources := make([]int32, 16)
	for i := range sources {
		sources[i] = int32(i * 37)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sources {
			DeltaStepping(g, s, DeltaSteppingOptions{})
		}
	}
}

// BenchmarkDeltaSteppingWorkspace is the zero-allocation path: one
// pooled workspace reused across sources on one graph. After the
// first (warm-up) run the light/heavy arc partition and all buffers
// are cached, so allocs/op must be 0 in steady state.
func BenchmarkDeltaSteppingWorkspace(b *testing.B) {
	g := weightedRMAT(benchScale(b))
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	for s := int32(0); s < 64; s++ { // warm caches and buffers over the source cycle
		ws.Run(g, s, DeltaSteppingOptions{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Run(g, int32(i%64), DeltaSteppingOptions{})
	}
}

// BenchmarkDeltaSteppingMutexBaseline is the seed implementation —
// one global mutex around every distance read and relaxation, buckets
// in a map scanned for its minimum key — kept test-only so the
// EXPERIMENTS.md before/after stays reproducible.
func BenchmarkDeltaSteppingMutexBaseline(b *testing.B) {
	g := weightedRMAT(benchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSteppingMutexBaseline(g, 0, DeltaSteppingOptions{})
	}
}

// deltaSteppingMutexBaseline is the seed's engine, verbatim apart from
// the name: the "before" side of the lock-free rewrite.
func deltaSteppingMutexBaseline(g *graph.Graph, src int32, opt DeltaSteppingOptions) Result {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	delta := opt.Delta
	if delta <= 0 {
		delta = 1
		if len(g.W) > 0 {
			delta = defaultDeltaFor(g, slices.Max(g.W))
		}
	}
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src

	buckets := map[int][]int32{0: {src}}
	inBucket := make([]int, n)
	for i := range inBucket {
		inBucket[i] = -1
	}
	inBucket[src] = 0
	var mu sync.Mutex

	getDist := func(v int32) float64 {
		mu.Lock()
		d := dist[v]
		mu.Unlock()
		return d
	}
	relax := func(u int32, nd float64, from int32) {
		mu.Lock()
		if nd < dist[u] {
			dist[u] = nd
			parent[u] = from
			b := int(nd / delta)
			if inBucket[u] != b {
				inBucket[u] = b
				buckets[b] = append(buckets[b], u)
			}
		}
		mu.Unlock()
	}

	for {
		cur := -1
		for b := range buckets {
			if len(buckets[b]) > 0 && (cur == -1 || b < cur) {
				cur = b
			}
		}
		if cur == -1 {
			break
		}
		var settled []int32
		for len(buckets[cur]) > 0 {
			batch := buckets[cur]
			buckets[cur] = nil
			live := batch[:0]
			for _, v := range batch {
				if inBucket[v] == cur {
					inBucket[v] = -2
					live = append(live, v)
				}
			}
			settled = append(settled, live...)
			par.ForChunkedN(len(live), workers, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := live[i]
					dv := getDist(v)
					alo, ahi := g.Offsets[v], g.Offsets[v+1]
					for a := alo; a < ahi; a++ {
						w := g.W[a]
						if w > delta {
							continue
						}
						relax(g.Adj[a], dv+w, v)
					}
				}
			})
		}
		delete(buckets, cur)
		par.ForChunkedN(len(settled), workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := settled[i]
				dv := getDist(v)
				alo, ahi := g.Offsets[v], g.Offsets[v+1]
				for a := alo; a < ahi; a++ {
					w := g.W[a]
					if w <= delta {
						continue
					}
					relax(g.Adj[a], dv+w, v)
				}
			}
		})
	}
	return Result{Dist: dist, Parent: parent}
}
