package bfs

import (
	"math/rand"
	"testing"

	"snap/internal/frontier"
	"snap/internal/generate"
	"snap/internal/graph"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// directionOptimizing runs DirectionOptimizing's traversal under
// opt's Workers, Alive and Cancel, through the engine entry the
// kernels that set those call.
func directionOptimizing(g *graph.Graph, src int32, opt frontier.Options) Result {
	e := frontier.AcquireEngine(g.NumVertices())
	defer frontier.ReleaseEngine(e)
	opt.MaxDepth, opt.Alpha = -1, frontier.DefaultAlpha
	e.RunOptions(g, src, opt)
	return e.Export()
}

// maxDist is r's source eccentricity (0 for an isolated source).
func maxDist(r Result) int32 {
	var mx int32
	for _, d := range r.Dist {
		mx = max(mx, d)
	}
	return mx
}

// reached counts the vertices r reached, the source included.
func reached(r Result) int {
	c := 0
	for _, d := range r.Dist {
		if d != frontier.Unreached {
			c++
		}
	}
	return c
}

func TestSerialOnPath(t *testing.T) {
	g := pathGraph(t, 5)
	r := Serial(g, 0, nil)
	for v := int32(0); v < 5; v++ {
		if r.Dist[v] != v {
			t.Fatalf("dist[%d] = %d", v, r.Dist[v])
		}
	}
	if r.Parent[0] != 0 || r.Parent[3] != 2 {
		t.Fatalf("parents wrong: %v", r.Parent)
	}
	if maxDist(r) != 4 || reached(r) != 5 {
		t.Fatalf("summary wrong: %d %d", maxDist(r), reached(r))
	}
}

func TestSerialDisconnected(t *testing.T) {
	g, _ := graph.Build(4, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{})
	r := Serial(g, 0, nil)
	if r.Dist[2] != -1 || r.Parent[2] != -1 {
		t.Fatal("unreached vertex should stay marked")
	}
	if reached(r) != 2 {
		t.Fatalf("reached = %d", reached(r))
	}
}

func TestSerialAliveMask(t *testing.T) {
	g := pathGraph(t, 5)
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	// Kill the middle edge (2-3).
	alive[g.EdgeIDOf(2, 3)] = false
	r := Serial(g, 0, alive)
	if r.Dist[2] != 2 || r.Dist[3] != -1 {
		t.Fatalf("mask not respected: %v", r.Dist)
	}
}

func TestParallelMatchesSerialOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := generate.RMAT(500, 2000, generate.DefaultRMAT(), int64(trial))
		src := int32(rng.Intn(g.NumVertices()))
		want := Serial(g, src, nil)
		for _, workers := range []int{2, 3, 4} {
			got := directionOptimizing(g, src, frontier.Options{Workers: workers})
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("trial %d workers %d: dist[%d] = %d, want %d",
						trial, workers, v, got.Dist[v], want.Dist[v])
				}
			}
		}
	}
}

func TestParallelParentsFormValidTree(t *testing.T) {
	g := generate.RMAT(1000, 5000, generate.DefaultRMAT(), 99)
	r := directionOptimizing(g, 0, frontier.Options{Workers: 4})
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if r.Dist[v] == -1 {
			continue
		}
		p := r.Parent[v]
		if v == 0 {
			if p != 0 {
				t.Fatal("root parent must be itself")
			}
			continue
		}
		if p < 0 {
			t.Fatalf("reached vertex %d has no parent", v)
		}
		if r.Dist[v] != r.Dist[p]+1 {
			t.Fatalf("tree edge %d->%d does not step one level", p, v)
		}
		if !g.HasEdge(p, v) {
			t.Fatalf("parent edge %d->%d not in graph", p, v)
		}
	}
}

func TestParallelAliveMask(t *testing.T) {
	g := pathGraph(t, 6)
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	alive[g.EdgeIDOf(1, 2)] = false
	r := directionOptimizing(g, 0, frontier.Options{Alive: alive, Workers: 3})
	if r.Dist[1] != 1 || r.Dist[2] != -1 {
		t.Fatalf("alive mask broken: %v", r.Dist)
	}
}

func BenchmarkBFSSerial(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Serial(g, 0, nil)
	}
}
