package frontier

import (
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// Set turns a sparse vertex list into the dense bitmap Has probes;
// a second Set replaces the first, also over a smaller universe.
func TestFrontierSparseDense(t *testing.T) {
	var f Frontier
	f.Set([]int32{3, 7, 64, 99}, 100)
	for v := int32(0); v < 100; v++ {
		want := v == 3 || v == 7 || v == 64 || v == 99
		if f.Has(v) != want {
			t.Fatalf("Has(%d) = %v, want %v", v, f.Has(v), want)
		}
	}
	f.Set([]int32{1, 2}, 8)
	for v := int32(0); v < 64; v++ {
		if f.Has(v) != (v == 1 || v == 2) {
			t.Fatalf("after shrinking Set: Has(%d) = %v", v, f.Has(v))
		}
	}
	f.Set(nil, 130)
	for v := int32(0); v < 130; v++ {
		if f.Has(v) {
			t.Fatalf("empty Set kept %d", v)
		}
	}
}

func TestStack(t *testing.T) {
	var s Stack
	s.Push(4)
	s.Push(9)
	if s.Len() != 2 || s.Top() != 9 {
		t.Fatalf("Len/Top = %d/%d", s.Len(), s.Top())
	}
	if s.Pop() != 9 || s.Pop() != 4 || s.Len() != 0 {
		t.Fatal("pop order wrong")
	}
}

// naiveDist is a from-scratch BFS oracle independent of the engine.
func naiveDist(g *graph.Graph, src int32) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			u := g.Adj[a]
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Crossing the uint32 epoch wraparound must clear stale stamps so old
// generations cannot alias fresh epochs.
func TestEngineEpochWraparound(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 5)
	e := NewEngine(g.NumVertices())
	e.Run(g, 0, nil, -1) // populate stamps at a low epoch
	e.epoch = math.MaxUint32 - 2
	for i := 0; i < 6; i++ { // walks the counter across 2^32 - 1 -> wrap -> 1, 2, ...
		src := int32(i * 7 % g.NumVertices())
		e.Run(g, src, nil, -1)
		want := naiveDist(g, src)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if e.Dist(v) != want[v] {
				t.Fatalf("after wrap step %d: Dist(%d) = %d, want %d", i, v, e.Dist(v), want[v])
			}
		}
	}
	if e.epoch >= math.MaxUint32-2 || e.epoch == 0 {
		t.Fatalf("epoch did not wrap to a small generation: %d", e.epoch)
	}
}
