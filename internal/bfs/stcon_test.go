package bfs

import (
	"math/rand"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func TestSTConnectivityPath(t *testing.T) {
	g := pathGraph(t, 8)
	ok, d := STConnectivity(g, 0, 7)
	if !ok || d != 7 {
		t.Fatalf("path: ok=%v d=%d, want true/7", ok, d)
	}
	ok, d = STConnectivity(g, 3, 3)
	if !ok || d != 0 {
		t.Fatalf("self: ok=%v d=%d", ok, d)
	}
}

func TestSTConnectivityDisconnected(t *testing.T) {
	g, _ := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
	ok, d := STConnectivity(g, 0, 3)
	if ok || d != -1 {
		t.Fatalf("disconnected: ok=%v d=%d", ok, d)
	}
}

// On a directed graph the distance is along out-arcs, as bfs.Serial
// counts it: the digraph 0→1, 0→3, 2→1 has no path from 0 to 2, which
// a t wave following 2's out-arcs back to 1 would claim.
func TestSTConnectivityMatchesBFSDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	digraph, err := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 3}, {U: 2, V: 1}}, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{digraph}
	for trial := 0; trial < 6; trial++ {
		g := generate.RMAT(400, 1200, generate.DefaultRMAT(), int64(trial))
		// The directed twin points every odd-numbered edge downhill.
		arcs := g.EdgeEndpoints()
		for i := 1; i < len(arcs); i += 2 {
			arcs[i].U, arcs[i].V = arcs[i].V, arcs[i].U
		}
		graphs = append(graphs, g, graph.MustBuild(g.NumVertices(), arcs, graph.BuildOptions{Directed: true}))
	}
	for i, g := range graphs {
		ref := Serial(g, 0, nil)
		for probe := 0; probe < 50; probe++ {
			t2 := int32(rng.Intn(g.NumVertices()))
			ok, d := STConnectivity(g, 0, t2)
			if ref.Dist[t2] == -1 {
				if ok {
					t.Fatalf("graph %d: claims 0~%d connected", i, t2)
				}
				continue
			}
			if !ok || d != ref.Dist[t2] {
				t.Fatalf("graph %d target %d: got (%v,%d), want (true,%d)",
					i, t2, ok, d, ref.Dist[t2])
			}
		}
	}
}

// Targets start at 1, so a -benchtime 1x smoke run searches too.
func BenchmarkSTConnectivity(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STConnectivity(g, 0, int32(1+i%(g.NumVertices()-1)))
	}
}

// One STSearch serves every query under random alive masks: the
// answer matches bfs.Serial on the masked graph, and a disconnected
// query's side is exactly the component of s or of t, so nothing a
// query leaves in the scratch reaches the next one.
func TestSTSearchReuseWithAliveMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := generate.RMAT(300, 600, generate.DefaultRMAT(), 2)
	alive := make([]bool, g.NumEdges())
	var x STSearch
	for q := 0; q < 200; q++ {
		for i := range alive {
			alive[i] = rng.Intn(4) != 0
		}
		s, t2 := int32(rng.Intn(g.NumVertices())), int32(rng.Intn(g.NumVertices()))
		ref := Serial(g, s, alive)
		ok, d, side := x.Run(g, s, t2, alive)
		if ok != (ref.Dist[t2] >= 0) || d != ref.Dist[t2] {
			t.Fatalf("query %d: %d~%d got (%v,%d), want dist %d", q, s, t2, ok, d, ref.Dist[t2])
		}
		if ok {
			continue
		}
		comp := ref
		if side[0] == t2 {
			comp = Serial(g, t2, alive)
		}
		if side[0] != s && side[0] != t2 || len(side) != reached(comp) {
			t.Fatalf("query %d: side of %d vertices from %d, component has %d", q, len(side), side[0], reached(comp))
		}
		for _, v := range side {
			if comp.Dist[v] < 0 {
				t.Fatalf("query %d: side holds %d outside the component", q, v)
			}
		}
	}
}
