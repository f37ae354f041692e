package components

import (
	"math/rand"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func TestIncrementalBasics(t *testing.T) {
	inc := NewIncremental(5)
	if inc.Components() != 5 {
		t.Fatalf("components = %d", inc.Components())
	}
	if !inc.AddEdge(0, 1) {
		t.Fatal("first edge should merge")
	}
	if inc.AddEdge(1, 0) {
		t.Fatal("redundant edge should not merge")
	}
	if !inc.Connected(0, 1) || inc.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	inc.AddEdge(2, 3)
	inc.AddEdge(1, 2)
	if inc.Components() != 2 { // {0,1,2,3}, {4}
		t.Fatalf("components = %d, want 2", inc.Components())
	}
	if inc.Edges() != 4 {
		t.Fatalf("edges = %d", inc.Edges())
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	// Streaming the edges of a random graph must reproduce the batch
	// connected-components result at every prefix checkpoint.
	g := generate.ErdosRenyi(300, 900, 42)
	eps := g.EdgeEndpoints()
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })

	inc := NewIncremental(g.NumVertices())
	for i, e := range eps {
		inc.AddEdge(e.U, e.V)
		if i%200 == 0 || i == len(eps)-1 {
			// Batch recompute over the prefix.
			uf := NewUnionFind(g.NumVertices())
			comps := g.NumVertices()
			for _, pe := range eps[:i+1] {
				if uf.Union(pe.U, pe.V) {
					comps--
				}
			}
			if inc.Components() != comps {
				t.Fatalf("prefix %d: incremental %d vs batch %d",
					i, inc.Components(), comps)
			}
		}
	}
	lab := inc.Labeling()
	batch := Connected(g, nil)
	if lab.Count != batch.Count {
		t.Fatalf("final labeling: %d vs %d", lab.Count, batch.Count)
	}
}

func TestIncrementalAddEdges(t *testing.T) {
	inc := NewIncremental(6)
	merged := inc.AddEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, // duplicate: one merge
		{U: 2, V: 3}, {U: 3, V: 4},
		{U: 5, V: 5}, // self-loop: processed, never merges
	})
	if merged != 3 {
		t.Fatalf("merged = %d, want 3", merged)
	}
	if inc.Components() != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("components = %d, want 3", inc.Components())
	}
	if inc.Edges() != 5 { // operation count, not distinct edges
		t.Fatalf("edges = %d, want 5", inc.Edges())
	}
}
