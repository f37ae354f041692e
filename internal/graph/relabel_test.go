package graph

import (
	"math/rand"
	"testing"
)

func relabelTestGraph(t *testing.T, weighted bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 300
	var edges []Edge
	for i := 0; i < 4*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		e := Edge{U: u, V: v}
		if weighted {
			e.W = float64(rng.Intn(9) + 1)
		}
		edges = append(edges, e)
	}
	g, err := Build(n, edges, BuildOptions{Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// relabelMultiHub is a 40-vertex weighted multigraph whose hub, vertex
// 0, has 120 arcs to 39 neighbors: about three parallel arcs per
// neighbor, each with its own weight, in a row past the insertion-sort
// cutoff. An unstable row sort reorders those parallel arcs.
func relabelMultiHub() *Graph {
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	for i := 0; i < 120; i++ {
		edges = append(edges, Edge{U: 0, V: int32(1 + rng.Intn(39)), W: float64(i + 1)})
	}
	for i := 0; i < 60; i++ {
		u, v := int32(1+rng.Intn(39)), int32(1+rng.Intn(39))
		edges = append(edges, Edge{U: u, V: v, W: float64(200 + i)})
	}
	return MustBuild(40, edges, BuildOptions{Weighted: true, AllowMulti: true})
}

func shuffledPerm(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

func TestRelabelRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		g     *Graph
		multi bool
	}{
		{relabelTestGraph(t, false), false},
		{relabelTestGraph(t, true), false},
		{relabelMultiHub(), true},
	} {
		g := tc.g
		weighted := g.Weighted()
		n := g.NumVertices()
		perm := shuffledPerm(n, 42)
		rg, inv, err := Relabel(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		// perm ∘ inv = id.
		for old := int32(0); int(old) < n; old++ {
			if perm[inv[old]] != old {
				t.Fatalf("perm[inv[%d]] = %d", old, perm[inv[old]])
			}
		}
		// Validate resolves arcs via EdgeIDOf, which cannot tell
		// parallel arcs apart: simple graphs only.
		if !tc.multi {
			if err := Validate(rg); err != nil {
				t.Fatalf("relabeled graph invalid: %v", err)
			}
		}
		if rg.NumEdges() != g.NumEdges() || rg.NumArcs() != g.NumArcs() {
			t.Fatalf("edge counts changed: %d/%d vs %d/%d",
				rg.NumEdges(), rg.NumArcs(), g.NumEdges(), g.NumArcs())
		}
		// Every old adjacency row must reappear, remapped, at its new id
		// — with edge ids and weights still attached to the same arcs.
		for old := int32(0); int(old) < n; old++ {
			nw := inv[old]
			if rg.Degree(nw) != g.Degree(old) {
				t.Fatalf("degree changed at %d", old)
			}
			type arc struct {
				to  int32
				eid int32
				w   float64
			}
			want := map[arc]int{}
			for a := g.Offsets[old]; a < g.Offsets[old+1]; a++ {
				ar := arc{to: inv[g.Adj[a]], eid: g.EID[a]}
				if weighted {
					ar.w = g.W[a]
				}
				want[ar]++
			}
			for a := rg.Offsets[nw]; a < rg.Offsets[nw+1]; a++ {
				ar := arc{to: rg.Adj[a], eid: rg.EID[a]}
				if weighted {
					ar.w = rg.W[a]
				}
				if want[ar] == 0 {
					t.Fatalf("arc %+v at new %d not in original row", ar, nw)
				}
				want[ar]--
			}
		}
		// Relabel keeps every edge id, and so does Build with
		// AllowMulti on the renamed edge list (ids are input
		// positions): the two must agree arc for arc, parallel arcs
		// included, in the canonical (neighbor, edge id) order.
		renamed := g.EdgeEndpoints()
		for i := range renamed {
			renamed[i].U, renamed[i].V = inv[renamed[i].U], inv[renamed[i].V]
		}
		requireIdentical(t, "relabel vs build", rg,
			MustBuild(n, renamed, BuildOptions{Directed: g.Directed(), Weighted: weighted, AllowMulti: true}))
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := relabelTestGraph(t, false)
	n := g.NumVertices()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rg, inv, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < n; v++ {
		if inv[v] != v {
			t.Fatalf("identity inverse wrong at %d", v)
		}
		a, b := g.Neighbors(v), rg.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("row %d length changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d differs at %d", v, i)
			}
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := relabelTestGraph(t, false)
	n := g.NumVertices()
	if _, _, err := Relabel(g, make([]int32, n-1)); err == nil {
		t.Fatal("short perm accepted")
	}
	bad := shuffledPerm(n, 1)
	bad[0] = bad[1] // duplicate
	if _, _, err := Relabel(g, bad); err == nil {
		t.Fatal("duplicate perm accepted")
	}
	bad2 := shuffledPerm(n, 2)
	bad2[0] = int32(n) // out of range
	if _, _, err := Relabel(g, bad2); err == nil {
		t.Fatal("out-of-range perm accepted")
	}
}
