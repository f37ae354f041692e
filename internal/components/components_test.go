package components

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"snap/internal/frontier"
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

// unionFindLabels is the components oracle: one union per alive arc,
// then UnionFind.Labeling's dense numbering.
func unionFindLabels(g *graph.Graph, alive []bool) Labeling {
	uf := NewUnionFind(g.NumVertices())
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			if alive == nil || alive[g.EID[a]] {
				uf.Union(v, g.Adj[a])
			}
		}
	}
	return uf.Labeling()
}

// halfAlive kills each edge of g with probability 1/2.
func halfAlive(g *graph.Graph, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = rng.Float64() < 0.5
	}
	return alive
}

// frontierSweep is Connected's BFS sweep with the given worker count
// per traversal, for undirected graphs.
func frontierSweep(g *graph.Graph, alive []bool, workers int) Labeling {
	comp := make([]int32, g.NumVertices())
	for i := range comp {
		comp[i] = -1
	}
	e := frontier.NewEngine(g.NumVertices())
	opt := frontier.Options{Workers: workers, Alive: alive, MaxDepth: -1, Alpha: frontier.DefaultAlpha}
	var count int32
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if comp[v] >= 0 {
			continue
		}
		e.RunOptions(g, v, opt)
		for _, u := range e.Order() {
			comp[u] = count
		}
		count++
	}
	return Labeling{Comp: comp, Count: int(count)}
}

// checkComponents asks Connected for the union-find oracle's labeling
// exactly — the same dense ids, not just the same partition — since
// both number components in smallest-member order. On undirected
// inputs the sweep must also give that labeling with 2 and 4 workers
// per traversal.
func checkComponents(t *testing.T, name string, g *graph.Graph, alive []bool) {
	t.Helper()
	want, got := unionFindLabels(g, alive), Connected(g, alive)
	if got.Count != want.Count || !slices.Equal(got.Comp, want.Comp) {
		t.Fatalf("%s: labeling differs from union-find (%d vs %d comps)", name, got.Count, want.Count)
	}
	if g.Directed() {
		return
	}
	for _, workers := range []int{2, 4} {
		par := frontierSweep(g, alive, workers)
		if par.Count != want.Count || !slices.Equal(par.Comp, want.Comp) {
			t.Fatalf("%s workers %d: labeling differs from union-find (%d vs %d comps)",
				name, workers, par.Count, want.Count)
		}
	}
}

func TestConnectedParallelMatchesSerial(t *testing.T) {
	var inputs []*graph.Graph
	for trial := 0; trial < 8; trial++ {
		inputs = append(inputs, generate.RMAT(400, 900, generate.DefaultRMAT(), int64(trial)))
	}
	// A directed R-MAT: its weak components need both arc directions.
	und := inputs[0]
	inputs = append(inputs, graph.MustBuild(und.NumVertices(), und.EdgeEndpoints(), graph.BuildOptions{Directed: true}))
	for trial, g := range inputs {
		checkComponents(t, fmt.Sprintf("trial %d", trial), g, nil)
	}
}

func TestConnectedParallelWithMask(t *testing.T) {
	er := generate.ErdosRenyi(300, 600, 12)
	checkComponents(t, "masked Erdos-Renyi", er, halfAlive(er, 12))
	// Masked, yet its giant component still takes a bottom-up level
	// (checked below), so the sweep's pull arm filters dead arcs.
	big := generate.RMAT(1<<12, 8<<12, generate.DefaultRMAT(), 3)
	bigAlive := halfAlive(big, 3)
	checkComponents(t, "masked RMAT", big, bigAlive)

	// A bottom-up level discovers its vertices in ascending id order,
	// so the visit order differs from the top-down queue loop's.
	lab := Connected(big, bigAlive)
	giant, _ := lab.Largest()
	seed := int32(slices.Index(lab.Comp, giant))
	e := frontier.NewEngine(big.NumVertices())
	e.Run(big, seed, bigAlive, -1)
	topDown := slices.Clone(e.Order())
	e.RunOptions(big, seed, frontier.Options{Workers: 1, Alive: bigAlive, MaxDepth: -1, Alpha: frontier.DefaultAlpha})
	if slices.Equal(topDown, e.Order()) {
		t.Fatal("the masked RMAT input no longer takes a bottom-up level")
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
	g := oracle.Ring(12)
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
		want := oracle.PrimMST(g)
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

// BoruvkaMST returns the same EdgeIDs in the same order and the same
// TotalWeight bits on every run and at every worker count. Float
// weights make the summation order visible in TotalWeight.
func TestBoruvkaDeterministic(t *testing.T) {
	base := generate.RMAT(2000, 8000, generate.DefaultRMAT(), 1)
	rng := rand.New(rand.NewSource(5))
	edges := base.EdgeEndpoints()
	for i := range edges {
		edges[i].W = rng.Float64()
	}
	g := graph.MustBuild(base.NumVertices(), edges, graph.BuildOptions{Weighted: true})
	want := BoruvkaMST(g, 1)
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, 2, 4} {
			got := BoruvkaMST(g, workers)
			if !slices.Equal(got.EdgeIDs, want.EdgeIDs) {
				t.Fatalf("rep %d workers=%d: EdgeIDs differ from the first run's", rep, workers)
			}
			if math.Float64bits(got.TotalWeight) != math.Float64bits(want.TotalWeight) {
				t.Fatalf("rep %d workers=%d: TotalWeight %v, first run %v", rep, workers, got.TotalWeight, want.TotalWeight)
			}
		}
	}
}

func BenchmarkBiconnected(b *testing.B) {
	g := generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Biconnected(g)
	}
}
