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

func TestSTConnectivityMatchesBFSDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		g := generate.RMAT(400, 1200, generate.DefaultRMAT(), int64(trial))
		ref := Serial(g, 0, nil)
		for probe := 0; probe < 50; probe++ {
			t2 := int32(rng.Intn(g.NumVertices()))
			ok, d := STConnectivity(g, 0, t2)
			if ref.Dist[t2] == -1 {
				if ok {
					t.Fatalf("trial %d: claims 0~%d connected", trial, t2)
				}
				continue
			}
			if !ok || d != ref.Dist[t2] {
				t.Fatalf("trial %d target %d: got (%v,%d), want (true,%d)",
					trial, t2, ok, d, ref.Dist[t2])
			}
		}
	}
}

func BenchmarkSTConnectivity(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STConnectivity(g, 0, int32(i%g.NumVertices()))
	}
}
