package ingest

import (
	"math/rand"
	"testing"

	"snap/internal/centrality"
	"snap/internal/generate"
	"snap/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	scale := 14
	if testing.Short() {
		scale = 10
	}
	n := 1 << scale
	return generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1)
}

func benchDelta(g *graph.Graph, frac float64, seed int64) (add, del []graph.Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := int32(g.NumVertices())
	k := int(frac * float64(g.NumEdges()))
	ends := g.EdgeEndpoints()
	for i := 0; i < k; i++ {
		if i%10 < 7 {
			add = append(add, graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
		} else {
			e := ends[rng.Intn(len(ends))]
			del = append(del, e)
		}
	}
	return add, del
}

// BenchmarkIngestCommit measures one commit of a 1% edge delta through
// the delta-merge path.
func BenchmarkIngestCommit(b *testing.B) {
	g := benchGraph(b)
	add, del := benchDelta(g, 0.01, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(clone(g), Options{})
		for _, e := range add {
			s.Add(e.U, e.V)
		}
		for _, e := range del {
			s.Delete(e.U, e.V)
		}
		b.StartTimer()
		if _, err := s.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkIngestRebuild is the from-scratch baseline for the same
// delta: materialize the updated edge list and run the full Build
// pipeline.
func BenchmarkIngestRebuild(b *testing.B) {
	g := benchGraph(b)
	add, del := benchDelta(g, 0.01, 2)
	next, err := graph.MergeDelta(g, add, del)
	if err != nil {
		b.Fatal(err)
	}
	edges := next.EdgeEndpoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Build(g.NumVertices(), edges, graph.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestPageRankIncremental measures the maintained PageRank
// after a small-delta commit (warm start from the previous epoch's
// scores).
func BenchmarkIngestPageRankIncremental(b *testing.B) {
	g := benchGraph(b)
	add, del := benchDelta(g, 0.01, 3)
	opt := centrality.PageRankOptions{}
	prev := centrality.PageRank(g, opt)
	next, err := graph.MergeDelta(g, add, del)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.PageRankFrom(next, prev, opt)
	}
}

// BenchmarkIngestPageRankFull is the cold-recompute baseline on the
// same updated snapshot.
func BenchmarkIngestPageRankFull(b *testing.B) {
	g := benchGraph(b)
	add, del := benchDelta(g, 0.01, 3)
	next, err := graph.MergeDelta(g, add, del)
	if err != nil {
		b.Fatal(err)
	}
	opt := centrality.PageRankOptions{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.PageRank(next, opt)
	}
}

// clone copies a graph so repeated commits in the benchmark loop never
// share a base snapshot (the stream closes what it supersedes).
func clone(g *graph.Graph) *graph.Graph {
	out, err := graph.MergeDelta(g, nil, nil)
	if err != nil {
		panic(err)
	}
	return out
}
