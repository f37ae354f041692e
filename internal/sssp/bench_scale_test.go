package sssp

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
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
		oracle.Dijkstra(g, 0)
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
// warm-up runs the max weight and all buffers are cached, so allocs/op
// must be 0 in steady state.
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

// twins returns the repo benchmark's weighted graphs at its default
// scale and seed: RMAT 2^17 with 8n edges and the 362² road mesh, both
// with integer weights 1–100 (RMAT 2^14 and mesh 128² under -short).
// At these weights the default delta leaves light and heavy arcs on
// both graphs, unlike weightedRMAT's 1–10, where it sits below the
// minimum weight.
func twins() []struct {
	name string
	g    *graph.Graph
} {
	scale, side := 17, 362
	if testing.Short() {
		scale, side = 14, 128
	}
	n := 1 << scale
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", generate.RandomWeights(generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1), 100, 2)},
		{"road", generate.RandomWeights(generate.RoadMesh(side, side, 0.05, 1), 100, 2)},
	}
}

// twinSources spreads 16 sources over the vertices vertex 0 reaches,
// so no op times a run from an isolated R-MAT vertex.
func twinSources(g *graph.Graph) []int32 {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.Run(g, 0, DeltaSteppingOptions{Workers: 1})
	reached := ws.Reached()
	src := make([]int32, 16)
	for i := range src {
		src[i] = reached[i*len(reached)/len(src)]
	}
	return src
}

var twinSink Result

// BenchmarkDeltaSteppingTwins times one SSSP per op on the benchmark's
// twins at the default delta and worker count. warm reuses one
// workspace across a cycle of sources (the serving tier's pooled
// path); cold calls the DeltaStepping facade after two GCs have
// emptied the workspace pool, as the analysis session's between-round
// GCs do, so it pays the workspace's first-run sizing and the copy-out.
// warm also reports, from Stats over one pass of the source cycle,
// vertex visits per reached vertex and arcs relaxed per arc of a
// reached vertex: 1 is the floor of each, and the excess is work spent
// on vertices drained before their distance was final.
func BenchmarkDeltaSteppingTwins(b *testing.B) {
	for _, tw := range twins() {
		g := tw.g
		src := twinSources(g)
		b.Run(tw.name+"/warm", func(b *testing.B) {
			ws := AcquireWorkspace()
			defer ReleaseWorkspace(ws)
			var st Stats
			var visits, arcs, reached, reachedArcs int64
			for _, s := range src {
				ws.Run(g, s, DeltaSteppingOptions{Stats: &st})
				visits += st.Visits
				arcs += st.Arcs
				reached += int64(len(ws.Reached()))
				for _, v := range ws.Reached() {
					reachedArcs += g.Offsets[v+1] - g.Offsets[v]
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Run(g, src[i%len(src)], DeltaSteppingOptions{})
			}
			b.ReportMetric(float64(visits)/float64(reached), "visits/reached")
			b.ReportMetric(float64(arcs)/float64(reachedArcs), "arcs/reached-arc")
		})
		b.Run(tw.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				twinSink = DeltaStepping(g, src[i%len(src)], DeltaSteppingOptions{})
			}
		})
	}
}
