package sketch

import (
	"slices"
	"testing"

	"snap/internal/bfs"
	"snap/internal/generate"
	"snap/internal/graph"
)

// exactDistances returns the full n×n BFS distance matrix (-1 for
// unreachable pairs) — the oracle the bracket tests compare against.
func exactDistances(g *graph.Graph) [][]int32 {
	n := g.NumVertices()
	out := make([][]int32, n)
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	bfs.MultiSourceWorkspace(g, sources, -1, 1, func(_, i int, ws *bfs.Workspace) {
		row := make([]int32, n)
		for j := range row {
			row[j] = -1
		}
		for _, v := range ws.Order() {
			row[v] = ws.Dist(v)
		}
		out[i] = row
	})
	return out
}

// twoComponentGraph builds a graph with a 30-vertex RMAT-ish blob and a
// 10-vertex ring, disjoint.
func twoComponentGraph(t testing.TB) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	rng := NewRNG(7)
	for i := 0; i < 60; i++ {
		u, v := int32(rng.Intn(30)), int32(rng.Intn(30))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	// Spanning path so the blob is one component.
	for i := 0; i < 29; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 30; i < 40; i++ {
		j := i + 1
		if j == 40 {
			j = 30
		}
		edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
	}
	return buildEdges(t, 40, edges)
}

// TestOracleBoundsBracketExact checks lo <= d <= hi for every pair on
// several families, that disconnected pairs are reported as such, and
// that a connected pair in a component holding no landmark (twocomp's
// ring: its degrees are all 2, below every blob hub's) is unresolved.
func TestOracleBoundsBracketExact(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", generate.RMAT(200, 800, generate.DefaultRMAT(), 3)},
		{"er", generate.ErdosRenyi(150, 600, 4)},
		{"path", pathGraph(t, 64)},
		{"twocomp", twoComponentGraph(t)},
	}
	for _, tc := range graphs {
		exact := exactDistances(tc.g)
		n := tc.g.NumVertices()
		o, err := BuildOracle(tc.g, OracleOptions{Landmarks: 8})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		unresolved := 0
		for s := int32(0); int(s) < n; s++ {
			for u := int32(0); int(u) < n; u++ {
				d := exact[s][u]
				lo, hi := o.Estimate(s, u)
				if d < 0 {
					// Disconnected pair: the oracle must never return a
					// finite bracket (a landmark reaching both would
					// prove connectivity).
					if hi >= 0 {
						t.Fatalf("%s: disconnected pair (%d,%d) got bracket [%d,%d]", tc.name, s, u, lo, hi)
					}
					continue
				}
				if hi < 0 {
					// Connected pair in a component with no landmark.
					if lo != -1 || hi != -1 || landmarkReaches(o, s) || landmarkReaches(o, u) {
						t.Fatalf("%s: connected pair (%d,%d) unresolved as [%d,%d] although a landmark reaches it", tc.name, s, u, lo, hi)
					}
					unresolved++
					continue
				}
				if lo > d || d > hi {
					t.Fatalf("%s: pair (%d,%d) d=%d outside [%d,%d]", tc.name, s, u, d, lo, hi)
				}
			}
		}
		if tc.name == "twocomp" && unresolved != 10*9 {
			t.Fatalf("twocomp: %d unresolved pairs, want the ring's 90 ordered pairs", unresolved)
		}
	}
}

// landmarkReaches reports whether some landmark of o reaches v.
func landmarkReaches(o *Oracle, v int32) bool {
	for i := range o.landmarks {
		if o.dist[i*o.n+int(v)] >= 0 {
			return true
		}
	}
	return false
}

// TestOracleExactAtLandmarks pins that queries touching a landmark are
// exact (lo == hi == d).
func TestOracleExactAtLandmarks(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 5)
	exact := exactDistances(g)
	o, err := BuildOracle(g, OracleOptions{Landmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range o.landmarks {
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			d := exact[l][v]
			lo, hi := o.Estimate(l, v)
			if d < 0 {
				if hi >= 0 {
					t.Fatalf("landmark %d to unreachable %d: bracket [%d,%d]", l, v, lo, hi)
				}
				continue
			}
			if lo != d || hi != d {
				t.Fatalf("landmark %d to %d: [%d,%d], want exact %d", l, v, lo, hi, d)
			}
			if got := o.dist[i*o.n+int(v)]; got != d {
				t.Fatalf("landmark row %d at %d = %d, want %d", i, v, got, d)
			}
		}
	}
}

// TestOracleStrategies pins landmark selection: the k highest-degree
// vertices, the max-degree vertex first, all in twocomp's blob.
func TestOracleStrategies(t *testing.T) {
	g := twoComponentGraph(t)
	o, err := BuildOracle(g, OracleOptions{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	best := int32(0)
	for v := int32(1); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	if len(o.landmarks) != 4 || o.landmarks[0] != best {
		t.Fatalf("landmarks %v, want 4 led by the max-degree vertex %d", o.landmarks, best)
	}
	for _, l := range o.landmarks {
		if l >= 30 {
			t.Fatalf("landmark %d lies in the ring, whose degrees are all 2", l)
		}
	}

	// Directed graphs are rejected.
	dg, err := graph.Build(3, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = BuildOracle(dg, OracleOptions{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

// TestOracleWorkerInvariance pins bitwise-identical landmarks and
// distance rows at every worker count, on all four bracket graphs.
func TestOracleWorkerInvariance(t *testing.T) {
	for _, g := range []*graph.Graph{
		generate.RMAT(500, 2000, generate.DefaultRMAT(), 6),
		generate.ErdosRenyi(150, 600, 4),
		pathGraph(t, 64),
		twoComponentGraph(t),
	} {
		base, err := BuildOracle(g, OracleOptions{Landmarks: 6, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := BuildOracle(g, OracleOptions{Landmarks: 6, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(base.landmarks, got.landmarks) {
				t.Fatalf("n=%d workers=%d: landmarks %v, want %v", g.NumVertices(), w, got.landmarks, base.landmarks)
			}
			if !slices.Equal(base.dist, got.dist) {
				t.Fatalf("n=%d workers=%d: distance rows differ", g.NumVertices(), w)
			}
		}
	}
}

// TestOracleEstimateZeroAlloc pins the query path's allocation
// contract.
func TestOracleEstimateZeroAlloc(t *testing.T) {
	g := generate.RMAT(1000, 4000, generate.DefaultRMAT(), 8)
	o, err := BuildOracle(g, OracleOptions{Landmarks: 16})
	if err != nil {
		t.Fatal(err)
	}
	var sink, q int32
	if allocs := testing.AllocsPerRun(100, func() {
		q = (q + 137) % 1000
		lo, hi := o.Estimate(11, q)
		sink += lo + hi
	}); allocs != 0 {
		t.Fatalf("Estimate allocates %.0f times, want 0", allocs)
	}
	_ = sink
}

// TestOracleEmptyAndSingleton covers degenerate builds.
func TestOracleEmptyAndSingleton(t *testing.T) {
	empty, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOracle(empty, OracleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o.n != 0 || len(o.landmarks) != 0 {
		t.Fatalf("empty oracle: %d vertices, %d landmarks", o.n, len(o.landmarks))
	}
	single, err := graph.Build(1, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err = BuildOracle(single, OracleOptions{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := o.Estimate(0, 0); lo != 0 || hi != 0 {
		t.Fatalf("self-distance: [%d,%d]", lo, hi)
	}
}
