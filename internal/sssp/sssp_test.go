package sssp

import (
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func TestDijkstraOnWeightedPath(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 10},
	}, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	r := Dijkstra(g, 0)
	want := []float64{0, 2, 5, 6}
	for v, d := range want {
		if r.Dist[v] != d {
			t.Fatalf("dist[%d] = %g, want %g", v, r.Dist[v], d)
		}
	}
	if r.Parent[3] != 2 {
		t.Fatalf("parent[3] = %d, want 2 (path through 2 beats direct edge)", r.Parent[3])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g, _ := graph.Build(3, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.BuildOptions{Weighted: true})
	r := Dijkstra(g, 0)
	if !math.IsInf(r.Dist[2], 1) || r.Parent[2] != -1 {
		t.Fatal("unreachable vertex should be Inf/-1")
	}
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := generate.RandomWeights(
			generate.RMAT(300, 1200, generate.DefaultRMAT(), int64(trial)), 10, int64(trial))
		want := Dijkstra(g, 0)
		for _, delta := range []float64{0, 0.5, 2, 100} {
			for _, workers := range []int{1, 3} {
				got := DeltaStepping(g, 0, DeltaSteppingOptions{Delta: delta, Workers: workers})
				for v := range want.Dist {
					if want.Dist[v] != got.Dist[v] {
						t.Fatalf("trial %d delta %g workers %d: dist[%d] = %g, want %g",
							trial, delta, workers, v, got.Dist[v], want.Dist[v])
					}
				}
			}
		}
	}
}

func TestDeltaSteppingUnweightedMatchesBFSDistances(t *testing.T) {
	g := generate.RMAT(500, 2000, generate.DefaultRMAT(), 4)
	want := Dijkstra(g, 7)
	got := DeltaStepping(g, 7, DeltaSteppingOptions{})
	for v := range want.Dist {
		if want.Dist[v] != got.Dist[v] {
			t.Fatalf("dist[%d] = %g, want %g", v, got.Dist[v], want.Dist[v])
		}
	}
}

func TestDeltaSteppingParentsConsistent(t *testing.T) {
	g := generate.RandomWeights(generate.ErdosRenyi(200, 800, 3), 7, 5)
	r := DeltaStepping(g, 0, DeltaSteppingOptions{Workers: 4})
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if math.IsInf(r.Dist[v], 1) || v == 0 {
			continue
		}
		p := r.Parent[v]
		if p < 0 {
			t.Fatalf("vertex %d reached but has no parent", v)
		}
		// dist[v] must equal dist[p] + w(p, v) for some parallel arc.
		found := false
		lo, hi := g.Offsets[p], g.Offsets[p+1]
		for a := lo; a < hi; a++ {
			if g.Adj[a] == v && r.Dist[p]+g.W[a] == r.Dist[v] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("parent edge (%d,%d) does not certify dist", p, v)
		}
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := generate.RandomWeights(generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1), 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

func BenchmarkDeltaStepping(b *testing.B) {
	g := generate.RandomWeights(generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1), 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(g, 0, DeltaSteppingOptions{})
	}
}

func TestDeltaSteppingDirected(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 3, V: 0, W: 1},
	}, graph.BuildOptions{Directed: true, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	r := DeltaStepping(g, 0, DeltaSteppingOptions{})
	want := []float64{0, 1, 2, 3}
	for v, d := range want {
		if r.Dist[v] != d {
			t.Fatalf("directed dist[%d] = %g, want %g", v, r.Dist[v], d)
		}
	}
	// dist[1] + w overflows to +Inf, which equals vertex 2's unreached
	// distance without certifying it: 2 keeps parent -1.
	g, err = graph.Build(3, []graph.Edge{{U: 0, V: 1, W: 1e308}, {U: 1, V: 2, W: 1e308}},
		graph.BuildOptions{Directed: true, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		r = DeltaStepping(g, 0, DeltaSteppingOptions{Workers: workers})
		if !math.IsInf(r.Dist[2], 1) || r.Parent[2] != -1 {
			t.Fatalf("workers=%d: overflowed vertex 2 has dist %g parent %d, want +Inf and -1",
				workers, r.Dist[2], r.Parent[2])
		}
	}
}
