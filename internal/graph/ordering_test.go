package graph

import (
	"slices"
	"testing"
)

func gridGraph(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	var edges []Edge
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	g, err := Build(rows*cols, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRCMOrderIsPermutation(t *testing.T) {
	g := gridGraph(t, 8, 13)
	perm := RCMOrder(g)
	if len(perm) != g.NumVertices() {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, g.NumVertices())
	for _, v := range perm {
		if v < 0 || int(v) >= g.NumVertices() || seen[v] {
			t.Fatalf("perm not a permutation at %d", v)
		}
		seen[v] = true
	}
}

// relabelMatchesBuild relabels g under perm and checks the result
// against Build on the renamed edge list, the edge-list round trip
// Relabel replaces: Offsets, Adj and W must be equal (edge ids differ
// by design — Relabel keeps them, Build renumbers).
func relabelMatchesBuild(t *testing.T, g *Graph, perm []int32) (*Graph, []int32) {
	t.Helper()
	rg, inv, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeEndpoints()
	for i, e := range edges {
		edges[i] = Edge{U: inv[e.U], V: inv[e.V], W: e.W}
	}
	want, err := Build(g.NumVertices(), edges, BuildOptions{Directed: g.Directed(), Weighted: g.Weighted()})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rg.Offsets, want.Offsets) || !slices.Equal(rg.Adj, want.Adj) || !slices.Equal(rg.W, want.W) {
		t.Fatal("Relabel differs from Build on the renamed edge list")
	}
	return rg, inv
}

func TestRelabelRCMPreservesStructure(t *testing.T) {
	g := gridGraph(t, 6, 6)
	ng, newOf := relabelMatchesBuild(t, g, RCMOrder(g))
	if ng.NumVertices() != g.NumVertices() || ng.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed sizes: %v vs %v", ng, g)
	}
	if err := Validate(ng); err != nil {
		t.Fatal(err)
	}
	// Every original edge must exist under the new labels.
	for _, e := range g.EdgeEndpoints() {
		if !ng.HasEdge(newOf[e.U], newOf[e.V]) {
			t.Fatalf("edge (%d,%d) lost in relabeling", e.U, e.V)
		}
	}
	// Degrees must be preserved pointwise.
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) != ng.Degree(newOf[v]) {
			t.Fatalf("degree changed for %d", v)
		}
	}
}

func TestRCMReducesBandwidthOnScrambledGrid(t *testing.T) {
	// A grid with row-major ids has bandwidth = cols. Scramble it with
	// a worst-case-ish permutation, then check RCM restores a small
	// bandwidth (grids are RCM's best case).
	g := gridGraph(t, 10, 10)
	// Scramble: bit-reverse-ish shuffle.
	scramble := make([]int32, g.NumVertices())
	for i := range scramble {
		scramble[i] = int32((i*37 + 11) % g.NumVertices())
	}
	sg, _ := relabelMatchesBuild(t, g, scramble)
	before := Bandwidth(sg)
	rg, _ := relabelMatchesBuild(t, sg, RCMOrder(sg))
	after := Bandwidth(rg)
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 20 { // row-major would be 10; allow 2x slack
		t.Fatalf("RCM bandwidth %d too high for a 10x10 grid", after)
	}
}
