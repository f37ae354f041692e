package metrics

import (
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func buildGraph(t *testing.T, n int, pairs [][2]int32) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{U: p[0], V: p[1]}
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegrees(t *testing.T) {
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	st := Degrees(g)
	if st.Min != 1 || st.Max != 3 || st.Mean != 1.5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hist[1] != 3 || st.Hist[3] != 1 {
		t.Fatalf("hist = %v", st.Hist)
	}
}

func TestLocalClusteringTriangleAndStar(t *testing.T) {
	tri := buildGraph(t, 3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	cc := LocalClustering(tri, 2)
	for v, c := range cc {
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("triangle cc[%d] = %g", v, c)
		}
	}
	star := buildGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	cs := LocalClustering(star, 2)
	if cs[0] != 0 || cs[1] != 0 {
		t.Fatalf("star cc = %v", cs)
	}
}

func TestGlobalClusteringKnownValue(t *testing.T) {
	// Triangle + pendant vertex attached to vertex 0:
	// cc(0) = 1/3 (pairs {1,2},{1,3},{2,3}, only {1,2} linked),
	// cc(1) = cc(2) = 1, cc(3) = 0 -> mean = (1/3 + 1 + 1 + 0)/4.
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	got := GlobalClustering(g, 1)
	want := (1.0/3 + 1 + 1 + 0) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("global clustering = %g, want %g", got, want)
	}
}

func TestTransitivity(t *testing.T) {
	// Same graph: 1 triangle, connected triples: deg choose 2 summed =
	// C(3,2)+C(2,2)+C(2,2)+0 = 3+1+1 = 5; transitivity = 3*1/ (3+1+1)...
	// with our per-vertex counting closed/triples = 3/5.
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	got := Transitivity(g, 2)
	if math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("transitivity = %g, want 0.6", got)
	}
}

func TestTransitivityCompleteGraph(t *testing.T) {
	g := generate.Complete(6)
	if got := Transitivity(g, 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("K6 transitivity = %g", got)
	}
}

func TestAssortativityStarIsNegative(t *testing.T) {
	// Stars are maximally disassortative.
	g := buildGraph(t, 5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if r := Assortativity(g); r >= 0 {
		t.Fatalf("star assortativity = %g, want < 0", r)
	}
}

func TestAssortativityRegularGraphUndefined(t *testing.T) {
	// On a cycle every endpoint degree is 2: denominator 0 -> 0.
	g := generate.Ring(8)
	if r := Assortativity(g); r != 0 {
		t.Fatalf("ring assortativity = %g, want 0 (degenerate)", r)
	}
}

func TestAvgNeighborDegree(t *testing.T) {
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	knn := AvgNeighborDegree(g)
	// Leaves (deg 1) all neighbor the hub (deg 3): knn[1] = 3.
	if knn[1] != 3 {
		t.Fatalf("knn[1] = %g, want 3", knn[1])
	}
	// Hub (deg 3) neighbors leaves: knn[3] = 1.
	if knn[3] != 1 {
		t.Fatalf("knn[3] = %g, want 1", knn[3])
	}
	if !math.IsNaN(knn[2]) {
		t.Fatalf("knn[2] should be NaN for missing class, got %g", knn[2])
	}
}

func TestRichClub(t *testing.T) {
	// K4 plus a pendant: vertices of degree > 1 are the K4, whose
	// density is 1.
	g := buildGraph(t, 5, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4},
	})
	phi := RichClub(g)
	if math.Abs(phi[1]-1.0) > 1e-12 {
		t.Fatalf("phi(1) = %g, want 1 (K4 core)", phi[1])
	}
	// phi(0): all 5 vertices, 7 edges of C(5,2)=10 pairs.
	if math.Abs(phi[0]-0.7) > 1e-12 {
		t.Fatalf("phi(0) = %g, want 0.7", phi[0])
	}
}

func TestAvgPathLengthPath(t *testing.T) {
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	avg, diam := AvgPathLength(g, PathLengthOptions{})
	// All pairs distances: 1,2,3,1,2,1 (each counted twice by BFS from
	// both ends, same mean): mean = 10/6.
	if math.Abs(avg-10.0/6) > 1e-9 {
		t.Fatalf("avg = %g, want %g", avg, 10.0/6)
	}
	if diam != 3 {
		t.Fatalf("diameter LB = %d, want 3", diam)
	}
}

func TestAvgPathLengthSmallWorldIsShort(t *testing.T) {
	g := generate.RMAT(2048, 16384, generate.DefaultRMAT(), 2)
	avg, _ := AvgPathLength(g, PathLengthOptions{Samples: 64, Seed: 1})
	if avg <= 0 || avg > 8 {
		t.Fatalf("small-world avg path length = %g, expected short", avg)
	}
}

func TestIsBipartite(t *testing.T) {
	even := generate.Ring(8)
	if !IsBipartite(even) {
		t.Fatal("even cycle should be bipartite")
	}
	odd := generate.Ring(7)
	if IsBipartite(odd) {
		t.Fatal("odd cycle should not be bipartite")
	}
	tri := buildGraph(t, 3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if IsBipartite(tri) {
		t.Fatal("triangle should not be bipartite")
	}
}

func BenchmarkLocalClustering(b *testing.B) {
	g := generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalClustering(g, 0)
	}
}

func TestPowerLawAlpha(t *testing.T) {
	g := generate.PreferentialAttachment(8000, 3, 11)
	alpha, cnt := PowerLawAlpha(g, 3)
	if cnt < 1000 {
		t.Fatalf("too few samples: %d", cnt)
	}
	// BA graphs have alpha ~= 3.
	if alpha < 2.0 || alpha > 4.0 {
		t.Fatalf("alpha = %.2f, outside [2, 4]", alpha)
	}
	if a, n := PowerLawAlpha(generate.Ring(3), 100); !math.IsNaN(a) || n != 0 {
		t.Fatalf("degenerate alpha should be NaN: %v %d", a, n)
	}
}

func TestCCDF(t *testing.T) {
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	ccdf := CCDF(g)
	// All vertices have degree >= 0 and >= 1; only the hub >= 2.
	if ccdf[0] != 1 || ccdf[1] != 1 {
		t.Fatalf("ccdf low: %v", ccdf)
	}
	if math.Abs(ccdf[3]-0.25) > 1e-12 {
		t.Fatalf("ccdf[3] = %g, want 0.25", ccdf[3])
	}
}
