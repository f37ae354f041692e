package centrality

import (
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func TestPageRankSumsToOne(t *testing.T) {
	g := generate.RMAT(500, 2000, generate.DefaultRMAT(), 1)
	pr := PageRank(g, PageRankOptions{})
	var s float64
	for _, v := range pr {
		s += v
	}
	if math.Abs(s-1) > 1e-6 {
		t.Fatalf("PageRank sums to %g", s)
	}
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	g := generate.Ring(20)
	pr := PageRank(g, PageRankOptions{})
	for v := 1; v < 20; v++ {
		if math.Abs(pr[v]-pr[0]) > 1e-9 {
			t.Fatalf("ring PageRank not uniform: %g vs %g", pr[v], pr[0])
		}
	}
}

func TestPageRankStarCenterDominates(t *testing.T) {
	g, _ := graph.Build(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
	}, graph.BuildOptions{})
	pr := PageRank(g, PageRankOptions{})
	for v := 1; v < 5; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("star center should dominate: %v", pr)
		}
	}
	// Analytical check for the undirected star with damping d:
	// leaves all equal, center = (1-d)/n + d*(sum of leaf shares).
	if math.Abs(pr[1]-pr[4]) > 1e-12 {
		t.Fatal("leaves should tie")
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Isolated vertex: dangling redistribution keeps the sum at 1.
	g, _ := graph.Build(3, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{})
	pr := PageRank(g, PageRankOptions{})
	var s float64
	for _, v := range pr {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("sum with dangling vertex = %g", s)
	}
}

func TestPageRankDirectedChain(t *testing.T) {
	// 0 -> 1 -> 2: rank must accumulate downstream.
	g, _ := graph.Build(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		graph.BuildOptions{Directed: true})
	pr := PageRank(g, PageRankOptions{})
	if !(pr[2] > pr[1] && pr[1] > pr[0]) {
		t.Fatalf("directed chain ranks wrong: %v", pr)
	}
	var s float64
	for _, v := range pr {
		s += v
	}
	if math.Abs(s-1) > 1e-6 {
		t.Fatalf("directed sum = %g", s)
	}
}

// A directed graph holding both arcs of every edge is the undirected
// graph as far as PageRank can tell: same scores, bit for bit.
func TestPageRankDirectedFallsBackUndirected(t *testing.T) {
	g := generate.Ring(10)
	var arcs []graph.Edge
	for _, e := range g.EdgeEndpoints() {
		arcs = append(arcs, e, graph.Edge{U: e.V, V: e.U, W: e.W})
	}
	dg := graph.MustBuild(g.NumVertices(), arcs, graph.BuildOptions{Directed: true})
	a := PageRank(g, PageRankOptions{})
	b := PageRank(dg, PageRankOptions{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("symmetric directed graph differs from undirected")
		}
	}
}

func TestEigenvectorCentrality(t *testing.T) {
	// Barbell-ish: the K5 vertices outrank the pendant path.
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	edges = append(edges, graph.Edge{U: 4, V: 5}, graph.Edge{U: 5, V: 6})
	g, _ := graph.Build(7, edges, graph.BuildOptions{})
	ec := EigenvectorCentrality(g, 0, 0)
	if ec[6] >= ec[0] {
		t.Fatalf("pendant outranks clique: %v", ec)
	}
	mx := 0.0
	for _, v := range ec {
		if v > mx {
			mx = v
		}
	}
	if math.Abs(mx-1) > 1e-9 {
		t.Fatalf("not normalized to max 1: %g", mx)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, PageRankOptions{})
	}
}
