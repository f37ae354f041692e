package components

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestConnectedTwoComponents(t *testing.T) {
	g := buildGraph(t, 6, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	lab := Connected(g, nil)
	if lab.Count != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("count = %d, want 3", lab.Count)
	}
	if lab.Comp[0] != lab.Comp[2] || lab.Comp[0] == lab.Comp[3] {
		t.Fatalf("labels wrong: %v", lab.Comp)
	}
	sizes := lab.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 6 {
		t.Fatalf("sizes sum %d", total)
	}
	if _, size := lab.Largest(); size != 3 {
		t.Fatalf("largest = %d", size)
	}
}

func TestConnectedAliveMask(t *testing.T) {
	g := buildGraph(t, 3, [][2]int32{{0, 1}, {1, 2}})
	alive := []bool{true, false}
	if id01 := g.EdgeIDOf(0, 1); id01 == 1 {
		alive = []bool{false, true}
	}
	lab := Connected(g, alive)
	if lab.Count != 2 {
		t.Fatalf("count = %d, want 2 with one edge dead", lab.Count)
	}
}

func sameLabeling(a, b Labeling) bool {
	if a.Count != b.Count || len(a.Comp) != len(b.Comp) {
		return false
	}
	// Compare as partitions (label names may differ).
	mapping := map[int32]int32{}
	for v := range a.Comp {
		if want, ok := mapping[a.Comp[v]]; ok {
			if want != b.Comp[v] {
				return false
			}
		} else {
			mapping[a.Comp[v]] = b.Comp[v]
		}
	}
	return true
}

func TestConnectedParallelMatchesSerial(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := generate.RMAT(400, 900, generate.DefaultRMAT(), int64(trial))
		want := Connected(g, nil)
		for _, workers := range []int{1, 2, 4} {
			got := ConnectedParallel(g, nil, workers)
			if !sameLabeling(want, got) {
				t.Fatalf("trial %d workers %d: partitions differ (%d vs %d comps)",
					trial, workers, want.Count, got.Count)
			}
		}
	}
}

func TestConnectedParallelWithMask(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := generate.ErdosRenyi(300, 600, 12)
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = rng.Float64() < 0.5
	}
	want := Connected(g, alive)
	got := ConnectedParallel(g, alive, 4)
	if !sameLabeling(want, got) {
		t.Fatalf("masked partitions differ: %d vs %d comps", want.Count, got.Count)
	}
}

func TestQuickUnionFind(t *testing.T) {
	check := func(ops []uint16) bool {
		n := 32
		uf := NewUnionFind(n)
		oracle := make([]int, n) // oracle labels by brute force
		for i := range oracle {
			oracle[i] = i
		}
		relabel := func(from, to int) {
			for i := range oracle {
				if oracle[i] == from {
					oracle[i] = to
				}
			}
		}
		for _, op := range ops {
			a := int32(op % uint16(n))
			b := int32((op / 37) % uint16(n))
			merged := uf.Union(a, b)
			if merged != (oracle[a] != oracle[b]) {
				return false
			}
			relabel(oracle[a], oracle[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uf.Find(int32(i)) == uf.Find(int32(j))) != (oracle[i] == oracle[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBiconnectedBridgesOnPath(t *testing.T) {
	// Every edge of a path is a bridge; interior vertices articulate.
	g := buildGraph(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	bc := Biconnected(g)
	for eid := 0; eid < g.NumEdges(); eid++ {
		if !bc.Bridge[eid] {
			t.Fatalf("path edge %d not a bridge", eid)
		}
	}
	wantArt := []bool{false, true, true, true, false}
	for v, want := range wantArt {
		if bc.Articulation[v] != want {
			t.Fatalf("articulation[%d] = %v, want %v", v, bc.Articulation[v], want)
		}
	}
	if bc.CompCount != 4 {
		t.Fatalf("CompCount = %d, want 4", bc.CompCount)
	}
}

func TestBiconnectedRingHasNoBridges(t *testing.T) {
	g := generate.Ring(12)
	bc := Biconnected(g)
	if len(bc.Bridges()) != 0 {
		t.Fatalf("ring has bridges: %v", bc.Bridges())
	}
	if len(bc.ArticulationPoints()) != 0 {
		t.Fatal("ring has articulation points")
	}
	if bc.CompCount != 1 {
		t.Fatalf("ring CompCount = %d", bc.CompCount)
	}
}

func TestBiconnectedBarbell(t *testing.T) {
	// Two triangles joined by a bridge 2-3.
	g := buildGraph(t, 6, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
	bc := Biconnected(g)
	bridges := bc.Bridges()
	if len(bridges) != 1 || bridges[0] != g.EdgeIDOf(2, 3) {
		t.Fatalf("bridges = %v, want just edge (2,3)", bridges)
	}
	arts := bc.ArticulationPoints()
	if len(arts) != 2 {
		t.Fatalf("articulation points = %v, want {2, 3}", arts)
	}
	if bc.CompCount != 3 {
		t.Fatalf("CompCount = %d, want 3 (two triangles + bridge)", bc.CompCount)
	}
	// Edges of the same triangle share a component.
	if bc.EdgeComp[g.EdgeIDOf(0, 1)] != bc.EdgeComp[g.EdgeIDOf(1, 2)] {
		t.Fatal("triangle edges not in one biconnected component")
	}
}

// bridgeOracle removes each edge and counts components (brute force).
func bridgeOracle(g *graph.Graph) []bool {
	m := g.NumEdges()
	base := Connected(g, nil).Count
	out := make([]bool, m)
	for e := 0; e < m; e++ {
		alive := make([]bool, m)
		for i := range alive {
			alive[i] = i != e
		}
		if Connected(g, alive).Count > base {
			out[e] = true
		}
	}
	return out
}

func TestBridgesMatchOracleOnRandomGraphs(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		g := generate.ErdosRenyi(40, 50, int64(trial))
		want := bridgeOracle(g)
		got := Biconnected(g).Bridge
		for e := range want {
			if want[e] != got[e] {
				t.Fatalf("trial %d: bridge[%d] = %v, want %v", trial, e, got[e], want[e])
			}
		}
	}
}

func TestBiconnectedEdgePartition(t *testing.T) {
	// Every edge must belong to exactly one biconnected component.
	g := generate.RMAT(200, 500, generate.DefaultRMAT(), 77)
	bc := Biconnected(g)
	for e := 0; e < g.NumEdges(); e++ {
		if bc.EdgeComp[e] < 0 || int(bc.EdgeComp[e]) >= bc.CompCount {
			t.Fatalf("edge %d has invalid component %d", e, bc.EdgeComp[e])
		}
	}
}

func TestBoruvkaMatchesPrim(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := generate.RandomWeights(generate.ErdosRenyi(120, 400, int64(trial)), 20, int64(trial+100))
		want := PrimMST(g)
		got := BoruvkaMST(g, 3)
		if len(want.EdgeIDs) != len(got.EdgeIDs) {
			t.Fatalf("trial %d: forest sizes differ: %d vs %d", trial, len(want.EdgeIDs), len(got.EdgeIDs))
		}
		if want.TotalWeight != got.TotalWeight {
			t.Fatalf("trial %d: weights differ: %g vs %g", trial, want.TotalWeight, got.TotalWeight)
		}
	}
}

func TestBoruvkaSpanningForestOnUnweighted(t *testing.T) {
	g := generate.ErdosRenyi(200, 400, 9)
	comps := Connected(g, nil).Count
	mst := BoruvkaMST(g, 2)
	if len(mst.EdgeIDs) != g.NumVertices()-comps {
		t.Fatalf("forest edges = %d, want n - #comps = %d",
			len(mst.EdgeIDs), g.NumVertices()-comps)
	}
	// Forest must be acyclic: union-find over chosen edges never cycles.
	uf := NewUnionFind(g.NumVertices())
	eps := g.EdgeEndpoints()
	for _, id := range mst.EdgeIDs {
		if !uf.Union(eps[id].U, eps[id].V) {
			t.Fatalf("edge %d creates a cycle", id)
		}
	}
}

func TestSpanningForest(t *testing.T) {
	g := buildGraph(t, 5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	pe := SpanningForest(g)
	roots, treeEdges := 0, 0
	for _, e := range pe {
		if e == -1 {
			roots++
		} else {
			treeEdges++
		}
	}
	if roots != 2 || treeEdges != 3 {
		t.Fatalf("roots=%d treeEdges=%d", roots, treeEdges)
	}
}

func BenchmarkConnectedParallel(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedParallel(g, nil, 0)
	}
}

func BenchmarkBiconnected(b *testing.B) {
	g := generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Biconnected(g)
	}
}
