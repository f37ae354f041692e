package bfs

import (
	"slices"
	"testing"

	"snap/internal/frontier"
	"snap/internal/generate"
)

func TestDirectionOptimizingMatchesSerial(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := generate.RMAT(2000, 16000, generate.DefaultRMAT(), int64(trial))
		want := Serial(g, 1, nil)
		for _, workers := range []int{1, 4} {
			got := directionOptimizing(g, 1, frontier.Options{Workers: workers})
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("trial %d workers %d: dist[%d] = %d, want %d",
						trial, workers, v, got.Dist[v], want.Dist[v])
				}
			}
		}
		if got := DirectionOptimizing(g, 1); !slices.Equal(got.Dist, want.Dist) {
			t.Fatalf("trial %d: DirectionOptimizing distances differ from Serial's", trial)
		}
	}
}

func TestDirectionOptimizingParentsValid(t *testing.T) {
	g := generate.RMAT(3000, 24000, generate.DefaultRMAT(), 3)
	r := directionOptimizing(g, 0, frontier.Options{Workers: 3})
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if r.Dist[v] == -1 || v == 0 {
			continue
		}
		p := r.Parent[v]
		if p < 0 || r.Dist[v] != r.Dist[p]+1 || !g.HasEdge(p, v) {
			t.Fatalf("invalid parent for %d: p=%d", v, p)
		}
	}
}

func TestDirectionOptimizingOnPath(t *testing.T) {
	// A path never triggers bottom-up (frontier stays tiny); make sure
	// the top-down path is still exact.
	g := pathGraph(t, 64)
	r := DirectionOptimizing(g, 0)
	for v := int32(0); v < 64; v++ {
		if r.Dist[v] != v {
			t.Fatalf("dist[%d] = %d", v, r.Dist[v])
		}
	}
}

func BenchmarkBFSDirectionOptimizing(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DirectionOptimizing(g, 0)
	}
}
