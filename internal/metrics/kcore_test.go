package metrics

import (
	"testing"
	"testing/quick"

	"snap/internal/generate"
	"snap/internal/graph"
)

func TestKCoreCliqueWithTail(t *testing.T) {
	// K4 (core 3) with a path tail (core 1).
	g, _ := graph.Build(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5},
	}, graph.BuildOptions{})
	core := KCore(g)
	want := []int32{3, 3, 3, 3, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Fatalf("core[%d] = %d, want %d (all: %v)", v, core[v], w, core)
		}
	}
	if Degeneracy(g) != 3 {
		t.Fatalf("degeneracy = %d", Degeneracy(g))
	}
}

func TestKCoreRing(t *testing.T) {
	g := generate.Ring(9)
	for v, c := range KCore(g) {
		if c != 2 {
			t.Fatalf("ring core[%d] = %d, want 2", v, c)
		}
	}
}

func TestKCoreTree(t *testing.T) {
	g := generate.Tree(50, 3)
	for v, c := range KCore(g) {
		if c != 1 {
			t.Fatalf("tree core[%d] = %d, want 1", v, c)
		}
	}
}

// kCoreOracle peels iteratively by brute force.
func kCoreOracle(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
	}
	for k := int32(0); ; k++ {
		// Remove all vertices of degree <= k repeatedly.
		anyLeft := false
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if removed[v] || deg[v] > int(k) {
					continue
				}
				removed[v] = true
				core[v] = k
				changed = true
				for _, u := range g.Neighbors(int32(v)) {
					if !removed[u] {
						deg[u]--
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if !removed[v] {
				anyLeft = true
			}
		}
		if !anyLeft {
			return core
		}
	}
}

func TestQuickKCoreMatchesOracle(t *testing.T) {
	check := func(seed uint8) bool {
		g := generate.ErdosRenyi(60, 150, int64(seed))
		fast := KCore(g)
		slow := kCoreOracle(g)
		for v := range fast {
			if fast[v] != slow[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The k-core invariant: inside the k-core subgraph, every vertex has
// at least k neighbors that are also in the k-core.
func TestKCoreInternalDegreeInvariant(t *testing.T) {
	g := generate.RMAT(500, 2500, generate.DefaultRMAT(), 5)
	core := KCore(g)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		k := core[v]
		cnt := int32(0)
		for _, u := range g.Neighbors(v) {
			if core[u] >= k {
				cnt++
			}
		}
		if cnt < k {
			t.Fatalf("vertex %d: core %d but only %d same-or-higher-core neighbors", v, k, cnt)
		}
	}
}
