package centrality

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
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

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: BC(v) for interior v counts pairs it separates.
	g := buildGraph(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	s := Betweenness(g, BetweennessOptions{ComputeVertex: true, ComputeEdge: true})
	want := []float64{0, 3, 4, 3, 0}
	for v, w := range want {
		if !approxEq(s.Vertex[v], w) {
			t.Fatalf("BC(%d) = %g, want %g", v, s.Vertex[v], w)
		}
	}
	// Edge betweenness of middle edge (1,2): pairs {0,1}x{2,3,4} = 6... plus
	// all shortest paths crossing it: (0,2),(0,3),(0,4),(1,2),(1,3),(1,4) = 6.
	if eb := s.Edge[g.EdgeIDOf(1, 2)]; !approxEq(eb, 6) {
		t.Fatalf("EBC(1,2) = %g, want 6", eb)
	}
	if eb := s.Edge[g.EdgeIDOf(0, 1)]; !approxEq(eb, 4) {
		t.Fatalf("EBC(0,1) = %g, want 4", eb)
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with center 0 and 4 leaves: BC(0) = C(4,2) = 6.
	g := buildGraph(t, 5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	s := Betweenness(g, BetweennessOptions{ComputeVertex: true})
	if !approxEq(s.Vertex[0], 6) {
		t.Fatalf("BC(center) = %g, want 6", s.Vertex[0])
	}
	for v := 1; v < 5; v++ {
		if !approxEq(s.Vertex[v], 0) {
			t.Fatalf("BC(leaf %d) = %g, want 0", v, s.Vertex[v])
		}
	}
}

func TestBetweennessCycleSplitsPaths(t *testing.T) {
	// On C4, opposite vertices are joined by two shortest paths, each
	// interior vertex carrying 1/2.
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	s := Betweenness(g, BetweennessOptions{ComputeVertex: true})
	for v := 0; v < 4; v++ {
		if !approxEq(s.Vertex[v], 0.5) {
			t.Fatalf("BC(%d) = %g, want 0.5", v, s.Vertex[v])
		}
	}
}

func TestBetweennessWorkerCountInvariance(t *testing.T) {
	g := generate.RMAT(150, 600, generate.DefaultRMAT(), 9)
	base := Betweenness(g, BetweennessOptions{Workers: 1, ComputeVertex: true})
	for _, w := range []int{2, 4, 8} {
		s := Betweenness(g, BetweennessOptions{Workers: w, ComputeVertex: true})
		for v := range base.Vertex {
			if math.Abs(base.Vertex[v]-s.Vertex[v]) > 1e-6 {
				t.Fatalf("workers=%d: BC(%d) drifted: %g vs %g", w, v, s.Vertex[v], base.Vertex[v])
			}
		}
	}
}

func TestBetweennessAliveMask(t *testing.T) {
	// Square with a diagonal; killing the diagonal reroutes paths.
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	alive[g.EdgeIDOf(0, 2)] = false
	s := Betweenness(g, BetweennessOptions{Alive: alive, ComputeVertex: true})
	// With the diagonal dead this is C4: all BC = 0.5.
	for v := 0; v < 4; v++ {
		if !approxEq(s.Vertex[v], 0.5) {
			t.Fatalf("BC(%d) = %g, want 0.5 on masked C4", v, s.Vertex[v])
		}
	}
}

func TestSampledBetweennessScaling(t *testing.T) {
	g := generate.RMAT(300, 1500, generate.DefaultRMAT(), 3)
	exact := Betweenness(g, BetweennessOptions{ComputeVertex: true})
	// Sampling all sources must equal the exact result exactly.
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	sampled := Betweenness(g, BetweennessOptions{ComputeVertex: true, Sources: all})
	for v := range exact.Vertex {
		if math.Abs(exact.Vertex[v]-sampled.Vertex[v]) > 1e-6 {
			t.Fatalf("full-source sampling drifted at %d", v)
		}
	}
}

func TestApproxBetweennessRanksHubFirst(t *testing.T) {
	// Barbell: two K8 cliques joined through a 3-vertex path. The path
	// middle must be the top-ranked vertex under approximation.
	var pairs [][2]int32
	for i := int32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			pairs = append(pairs, [2]int32{i, j})
			pairs = append(pairs, [2]int32{11 + i, 11 + j})
		}
	}
	pairs = append(pairs, [2]int32{7, 8}, [2]int32{8, 9}, [2]int32{9, 10}, [2]int32{10, 11})
	g := buildGraph(t, 19, pairs)
	s := ApproxBetweenness(g, ApproxOptions{SampleFraction: 0.5, Seed: 1, ComputeVertex: true})
	top := TopKVertices(s.Vertex, 3)
	for _, v := range top {
		if v < 7 || v > 11 {
			t.Fatalf("top-3 approx BC contains clique vertex %d: %v", v, top)
		}
	}
}

func TestApproxBetweennessExactWhenBudgetExceedsN(t *testing.T) {
	g := generate.RMAT(60, 240, generate.DefaultRMAT(), 5)
	exact := Betweenness(g, BetweennessOptions{ComputeVertex: true, ComputeEdge: true})
	appr := ApproxBetweenness(g, ApproxOptions{SampleFraction: 2.0, Seed: 2})
	for v := range exact.Vertex {
		if math.Abs(exact.Vertex[v]-appr.Vertex[v]) > 1e-6 {
			t.Fatal("approx with full budget should be exact")
		}
	}
}

// NaN in a float option means the default, as 0 does. The ring is a
// graph where the adaptive stop (Alpha) ends sampling before the
// budget does.
func TestApproxBetweennessNaNOptionsAreDefaults(t *testing.T) {
	for _, g := range []*graph.Graph{oracle.Ring(1000), generate.RMAT(1000, 4000, generate.DefaultRMAT(), 7)} {
		want := ApproxBetweenness(g, ApproxOptions{Seed: 1, Workers: 1})
		for _, opt := range []ApproxOptions{
			{Seed: 1, Workers: 1, SampleFraction: math.NaN()},
			{Seed: 1, Workers: 1, Alpha: math.NaN()},
		} {
			if got := ApproxBetweenness(g, opt); !slices.Equal(got.Vertex, want.Vertex) {
				t.Fatalf("n=%d %+v: scores differ from the defaults'", g.NumVertices(), opt)
			}
		}
	}
}

func TestMaxEdgeAndTopK(t *testing.T) {
	scores := []float64{1, 9, 3, 9, 2}
	if e := MaxEdge(scores, nil); e != 1 {
		t.Fatalf("MaxEdge = %d, want 1 (tie to smaller id)", e)
	}
	alive := []bool{true, false, true, true, true}
	if e := MaxEdge(scores, alive); e != 3 {
		t.Fatalf("masked MaxEdge = %d, want 3", e)
	}
	top := TopKVertices(scores, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("TopKVertices = %v, want [1 3 2]", top)
	}
	if e := MaxEdge(nil, nil); e != -1 {
		t.Fatalf("empty MaxEdge = %d", e)
	}
}

func TestDegreeAndCloseness(t *testing.T) {
	g := buildGraph(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	dc := DegreeCentrality(g)
	if dc[0] != 3 || dc[1] != 1 {
		t.Fatalf("degree centrality wrong: %v", dc)
	}
	cc := Closeness(g, ClosenessOptions{})
	// Center: distances 1+1+1 = 3 -> 1/3. Leaf: 1+2+2 = 5 -> 1/5.
	if !approxEq(cc[0], 1.0/3) || !approxEq(cc[1], 0.2) {
		t.Fatalf("closeness wrong: %v", cc)
	}
}

func TestTopKVertices(t *testing.T) {
	scores := []float64{0.5, 2, 2, 1}
	top := TopKVertices(scores, 2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopKVertices = %v", top)
	}
}

// topKReference is the original O(n·k) partial selection sort, kept as
// the oracle pinning the ordering contract: descending score, ties
// toward the smaller index.
func topKReference(scores []float64, k int) []int32 {
	if k > len(scores) {
		k = len(scores)
	}
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			si, sj := scores[idx[j]], scores[idx[best]]
			if si > sj || (si == sj && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// The bounded-heap TopKVertices must reproduce the selection-sort
// order exactly, including tie-breaks toward the smaller index, on
// heavily tied inputs.
func TestTopKVerticesTieBreakMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(5)) // few distinct values => many ties
		}
		for _, k := range []int{0, 1, 3, n / 2, n, n + 10} {
			got := TopKVertices(scores, k)
			want := topKReference(scores, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: len %d, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: order %v, want %v (scores %v)", n, k, got, want, scores)
				}
			}
		}
	}
}

// All-ties input: output must be the first k indices in ascending order.
func TestTopKVerticesAllTied(t *testing.T) {
	scores := make([]float64, 20)
	got := TopKVertices(scores, 7)
	for i := range got {
		if got[i] != int32(i) {
			t.Fatalf("all-tied TopK = %v, want ascending prefix", got)
		}
	}
}

func BenchmarkBetweennessCoarse(b *testing.B) {
	g := generate.RMAT(2000, 8000, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Betweenness(g, BetweennessOptions{ComputeVertex: true})
	}
}

func BenchmarkApproxBetweenness(b *testing.B) {
	g := generate.RMAT(2000, 8000, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxBetweenness(g, ApproxOptions{Seed: int64(i)})
	}
}
