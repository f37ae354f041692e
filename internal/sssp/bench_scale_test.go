package sssp

import (
	"os"
	"strconv"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
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
