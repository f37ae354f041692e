package metrics

import (
	"testing"

	"snap/internal/bfs"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
)

// diameterOracle runs BFS from every vertex of the largest component.
func diameterOracle(g *graph.Graph) int {
	best := 0
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		for _, d := range bfs.Serial(g, v, nil).Dist {
			best = max(best, int(d))
		}
	}
	return best
}

func TestDiameterPath(t *testing.T) {
	g := buildGraph(t, 9, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
	})
	if d := Diameter(g); d != 8 {
		t.Fatalf("path diameter = %d, want 8", d)
	}
}

func TestDiameterRing(t *testing.T) {
	g := oracle.Ring(12)
	if d := Diameter(g); d != 6 {
		t.Fatalf("C12 diameter = %d, want 6", d)
	}
	odd := oracle.Ring(13)
	if d := Diameter(odd); d != 6 {
		t.Fatalf("C13 diameter = %d, want 6", d)
	}
}

func TestDiameterMatchesOracleOnRandomGraphs(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		g := generate.ErdosRenyi(120, 240, int64(trial))
		want := diameterOracle(g)
		if got := Diameter(g); got != want {
			t.Fatalf("trial %d: diameter = %d, want %d", trial, got, want)
		}
	}
	for trial := 0; trial < 4; trial++ {
		g := generate.RMAT(200, 800, generate.DefaultRMAT(), int64(trial))
		want := diameterOracle(g)
		if got := Diameter(g); got != want {
			t.Fatalf("rmat trial %d: diameter = %d, want %d", trial, got, want)
		}
	}
}

func TestDiameterEdgeless(t *testing.T) {
	g, _ := graph.Build(5, nil, graph.BuildOptions{})
	if d := Diameter(g); d != 0 {
		t.Fatalf("edgeless diameter = %d", d)
	}
}
