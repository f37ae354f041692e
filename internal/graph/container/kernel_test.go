package container

import (
	"path/filepath"
	"testing"

	"snap/internal/bfs"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/frontier"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/sssp"
)

// twoWorkerBFS runs the direction-optimizing traversal of
// bfs.DirectionOptimizing at two workers, so bottom-up levels take the
// parallel pull arm.
func twoWorkerBFS(g *graph.Graph, src int32) bfs.Result {
	ws := bfs.AcquireWorkspace(g.NumVertices())
	defer bfs.ReleaseWorkspace(ws)
	ws.RunOptions(g, src, frontier.Options{Workers: 2, MaxDepth: -1, Alpha: frontier.DefaultAlpha})
	return ws.Export()
}

// TestKernelEquivalenceMapped pins the acceptance criterion that every
// kernel class runs bit-identically on a mapped graph: the
// level-synchronous frontier engine (BFS), the weighted CAS-relaxation
// engine (delta-stepping SSSP), the direction-optimizing components
// sweep, and the community move engine (Louvain), each compared
// against the same kernel on the heap-built original — for the plain
// mapped container and the varint decoded view.
func TestKernelEquivalenceMapped(t *testing.T) {
	heap := generate.RMAT(1<<12, 1<<15, generate.DefaultRMAT(), 99)
	// Give it weights deterministically so the weighted path is real.
	w := make([]float64, len(heap.Adj))
	eidw := make([]float64, heap.NumEdges())
	for i := range eidw {
		eidw[i] = 0.25 + float64((i*2654435761)%1000)/500
	}
	for a := range w {
		w[a] = eidw[heap.EID[a]]
	}
	heap = graph.WrapCSR(heap.Offsets, heap.Adj, heap.EID, w, heap.Directed(), heap.NumEdges())

	dir := t.TempDir()
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		p := filepath.Join(dir, name+".snp2")
		if err := Save(p, heap, Options{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		mapped, err := Load(p, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, src := range []int32{0, 1, 511} {
				hb := twoWorkerBFS(heap, src)
				mb := twoWorkerBFS(mapped, src)
				for v := range hb.Dist {
					if hb.Dist[v] != mb.Dist[v] || hb.Parent[v] != mb.Parent[v] {
						t.Fatalf("BFS from %d differs at %d: (%d,%d) vs (%d,%d)",
							src, v, mb.Dist[v], mb.Parent[v], hb.Dist[v], hb.Parent[v])
					}
				}
				hs := sssp.DeltaStepping(heap, src, sssp.DeltaSteppingOptions{})
				ms := sssp.DeltaStepping(mapped, src, sssp.DeltaSteppingOptions{})
				for v := range hs.Dist {
					if hs.Dist[v] != ms.Dist[v] || hs.Parent[v] != ms.Parent[v] {
						t.Fatalf("SSSP from %d differs at %d: (%v,%d) vs (%v,%d)",
							src, v, ms.Dist[v], ms.Parent[v], hs.Dist[v], hs.Parent[v])
					}
				}
			}
			hc := components.Connected(heap, nil)
			mc := components.Connected(mapped, nil)
			for v := range hc.Comp {
				if hc.Comp[v] != mc.Comp[v] {
					t.Fatalf("components differ at %d: %d vs %d", v, mc.Comp[v], hc.Comp[v])
				}
			}
			hl := community.Louvain(heap, community.LouvainOptions{Seed: 3})
			ml := community.Louvain(mapped, community.LouvainOptions{Seed: 3})
			if hl.Count != ml.Count {
				t.Fatalf("Louvain community counts differ: %d vs %d", ml.Count, hl.Count)
			}
			for v := range hl.Assign {
				if hl.Assign[v] != ml.Assign[v] {
					t.Fatalf("Louvain differs at %d: %d vs %d", v, ml.Assign[v], hl.Assign[v])
				}
			}
		})
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
