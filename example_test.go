package snap_test

import (
	"fmt"

	"snap"
)

// Two triangles joined by a bridge — the smallest graph with obvious
// community structure.
func twoTriangles() *snap.Graph {
	g, err := snap.Build(6, []snap.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	}, snap.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

func ExampleBFS() {
	g := twoTriangles()
	r := snap.BFS(g, 0)
	fmt.Println(r.Dist[5])
	// Output: 3
}

func ExampleModularity() {
	g := twoTriangles()
	q := snap.Modularity(g, []int32{0, 0, 0, 1, 1, 1})
	fmt.Printf("%.4f\n", q)
	// Output: 0.3571
}

func ExamplePMA() {
	g := twoTriangles()
	c, _ := snap.PMA(g, snap.PMAOptions{StopWhenNegative: true})
	fmt.Println(c.Count)
	// Output: 2
}

func ExampleGirvanNewman() {
	g := twoTriangles()
	c, _ := snap.GirvanNewman(g, snap.GNOptions{})
	fmt.Printf("%d communities, Q=%.4f\n", c.Count, c.Q)
	// Output: 2 communities, Q=0.3571
}

func ExampleBiconnected() {
	g := twoTriangles()
	b := snap.Biconnected(g)
	fmt.Println(len(b.Bridges()), "bridge;", len(b.ArticulationPoints()), "articulation points")
	// Output: 1 bridge; 2 articulation points
}

func ExampleEdgeCut() {
	g := twoTriangles()
	fmt.Println(snap.EdgeCut(g, []int32{0, 0, 0, 1, 1, 1}))
	// Output: 1
}

func ExampleSTConnectivity() {
	g := twoTriangles()
	ok, d := snap.STConnectivity(g, 0, 5)
	fmt.Println(ok, d)
	// Output: true 3
}

func ExampleKCore() {
	g := twoTriangles()
	core := snap.KCore(g)
	fmt.Println(core[0], core[2])
	// Output: 2 2
}

func ExampleDeltaStepping() {
	// The two-triangle graph with weighted arcs: the bridge is cheap,
	// the triangle edges cost 2 each.
	g, err := snap.Build(6, []snap.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 2},
		{U: 3, V: 4, W: 2}, {U: 4, V: 5, W: 2}, {U: 3, V: 5, W: 2},
		{U: 2, V: 3, W: 1},
	}, snap.BuildOptions{Weighted: true})
	if err != nil {
		panic(err)
	}
	// A wide bucket makes every edge light; two workers relax them
	// concurrently. Any Delta and Workers give the same distances.
	r := snap.DeltaStepping(g, 0, snap.DeltaSteppingOptions{Delta: 4, Workers: 2})
	fmt.Println(r.Dist[5])
	// Output: 5
}

func ExampleNMI() {
	a := []int32{0, 0, 0, 1, 1, 1}
	b := []int32{1, 1, 1, 0, 0, 0} // same partition, relabeled
	fmt.Printf("%.1f\n", snap.NMI(a, b))
	// Output: 1.0
}

func ExamplePartition() {
	g := twoTriangles()
	// Partition into two parts, then reorder the graph so each part
	// occupies one contiguous id block and run BFS on the new ids.
	res, err := snap.Partition(g, snap.PartitionOptions{K: 2})
	if err != nil {
		panic(err)
	}
	perm, _, err := snap.BlockedPerm(g, res.Part, res.K)
	if err != nil {
		panic(err)
	}
	rg, inv, err := snap.Relabel(g, perm)
	if err != nil {
		panic(err)
	}
	dist := snap.BFS(rg, inv[0]).Dist
	fmt.Println(res.EdgeCut, dist[inv[5]])
	// Output: 1 3
}
