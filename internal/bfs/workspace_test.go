package bfs

import (
	"math/rand"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// disconnectedGraph builds a deliberately fragmented graph: a path
// component, a ring component, and a tail of isolated vertices.
func disconnectedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < 99; i++ { // path over [0, 100)
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 100; i < 160; i++ { // ring over [100, 160)
		j := i + 1
		if j == 160 {
			j = 100
		}
		edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
	}
	g, err := graph.Build(200, edges, graph.BuildOptions{}) // [160, 200) isolated
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAgainstSerial verifies every accessor of ws against the
// untouched textbook oracle for the same source.
func checkAgainstSerial(t *testing.T, g *graph.Graph, ws *Workspace, src int32) {
	t.Helper()
	want := Serial(g, src, nil)
	reached := 0
	var sum int64
	var maxD int32
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if got := ws.Dist(v); got != want.Dist[v] {
			t.Fatalf("src %d: Dist(%d) = %d, want %d", src, v, got, want.Dist[v])
		}
		if got := ws.Parent(v); got != want.Parent[v] {
			t.Fatalf("src %d: Parent(%d) = %d, want %d", src, v, got, want.Parent[v])
		}
		if want.Dist[v] != -1 {
			reached++
			sum += int64(want.Dist[v])
			if want.Dist[v] > maxD {
				maxD = want.Dist[v]
			}
			if !ws.Visited(v) {
				t.Fatalf("src %d: Visited(%d) = false for reached vertex", src, v)
			}
		} else if ws.Visited(v) {
			t.Fatalf("src %d: Visited(%d) = true for unreached vertex", src, v)
		}
	}
	if ws.Reached() != reached {
		t.Fatalf("src %d: Reached = %d, want %d", src, ws.Reached(), reached)
	}
	if ws.SumDist() != sum {
		t.Fatalf("src %d: SumDist = %d, want %d", src, ws.SumDist(), sum)
	}
	if ws.MaxDist() != maxD {
		t.Fatalf("src %d: MaxDist = %d, want %d", src, ws.MaxDist(), maxD)
	}
	prev := int32(0)
	for _, v := range ws.Order() {
		d := ws.Dist(v)
		if d < prev {
			t.Fatalf("src %d: Order not sorted by distance", src)
		}
		prev = d
	}
	exp := ws.Export()
	for v := range exp.Dist {
		if exp.Dist[v] != want.Dist[v] || exp.Parent[v] != want.Parent[v] {
			t.Fatalf("src %d: Export mismatch at %d", src, v)
		}
	}
}

// The tentpole property: one workspace reused back-to-back across 60+
// sources returns distances identical to bfs.Serial on all three graph
// families (RMAT, Erdős–Rényi, disconnected).
func TestWorkspaceMatchesSerialAcrossFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"rmat":         generate.RMAT(400, 1600, generate.DefaultRMAT(), 11),
		"erdosrenyi":   generate.ErdosRenyi(400, 1200, 12),
		"disconnected": disconnectedGraph(t),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			ws := AcquireWorkspace(g.NumVertices())
			for trial := 0; trial < 60; trial++ {
				src := int32(rng.Intn(g.NumVertices()))
				ws.Run(g, src, nil, -1)
				checkAgainstSerial(t, g, ws, src)
			}
		})
	}
}

func TestWorkspaceDepthLimit(t *testing.T) {
	g := pathGraph(t, 10)
	ws := AcquireWorkspace(g.NumVertices())
	ws.Run(g, 0, nil, 3)
	if ws.Dist(3) != 3 {
		t.Errorf("Dist(3) = %d, want 3", ws.Dist(3))
	}
	if ws.Dist(4) != -1 {
		t.Errorf("depth limit ignored: Dist(4) = %d", ws.Dist(4))
	}
	if ws.Reached() != 4 || ws.MaxDist() != 3 {
		t.Errorf("summary wrong: reached %d max %d", ws.Reached(), ws.MaxDist())
	}
}

func TestWorkspaceAliveMask(t *testing.T) {
	g := pathGraph(t, 6)
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	alive[g.EdgeIDOf(2, 3)] = false
	ws := AcquireWorkspace(g.NumVertices())
	ws.Run(g, 0, alive, -1)
	if ws.Dist(2) != 2 || ws.Dist(3) != -1 {
		t.Fatalf("alive mask broken: %d %d", ws.Dist(2), ws.Dist(3))
	}
}

// Pooled workspaces are resized across graphs of different sizes; the
// reuse (shrink, then grow back within capacity) must not leak state.
func TestWorkspacePoolResizeAcrossGraphs(t *testing.T) {
	big := generate.RMAT(500, 2000, generate.DefaultRMAT(), 9)
	small := generate.ErdosRenyi(60, 120, 10)
	ws := AcquireWorkspace(big.NumVertices())
	ws.Run(big, 3, nil, -1)
	checkAgainstSerial(t, big, ws, 3)
	ws.Resize(small.NumVertices())
	ws.Run(small, 5, nil, -1)
	checkAgainstSerial(t, small, ws, 5)
	ws.Resize(big.NumVertices())
	ws.Run(big, 7, nil, -1)
	checkAgainstSerial(t, big, ws, 7)
	ReleaseWorkspace(ws)
}

func TestMultiSourceWorkspaceMatchesSerial(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 2)
	n := g.NumVertices()
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32((i * 5) % n)
	}
	for _, workers := range []int{1, 3, 8} {
		sums := make([]int64, len(sources))
		seen := make([]int32, len(sources))
		workerOf := make([]int, len(sources)) // disjoint per-index slots: race-free
		MultiSourceWorkspace(g, sources, -1, workers, func(w, i int, ws *Workspace) {
			workerOf[i] = w
			sums[i] = ws.SumDist()
			seen[i]++
		})
		for i, src := range sources {
			want := Serial(g, src, nil)
			var wantSum int64
			for _, d := range want.Dist {
				if d > 0 {
					wantSum += int64(d)
				}
			}
			if sums[i] != wantSum {
				t.Fatalf("workers %d: source %d SumDist = %d, want %d", workers, src, sums[i], wantSum)
			}
			if seen[i] != 1 {
				t.Fatalf("workers %d: source index %d visited %d times", workers, i, seen[i])
			}
			if workerOf[i] < 0 || workerOf[i] >= workers {
				t.Fatalf("workers %d: worker id %d out of range", workers, workerOf[i])
			}
		}
	}
}

func TestMultiSourceWorkspaceDepthLimit(t *testing.T) {
	g := pathGraph(t, 10)
	MultiSourceWorkspace(g, []int32{0}, 3, 1, func(_, _ int, ws *Workspace) {
		if ws.Dist(3) != 3 {
			t.Errorf("Dist(3) = %d, want 3", ws.Dist(3))
		}
		if ws.Dist(4) != -1 {
			t.Errorf("depth limit ignored: Dist(4) = %d", ws.Dist(4))
		}
	})
}
