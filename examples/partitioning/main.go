// Partitioning: the paper's Table 1 phenomenon in miniature — the
// same partitioners produce small cuts on a near-Euclidean road
// network and give dramatically worse cuts on equal-sized random and
// small-world graphs, because small-world topology simply has no
// small balanced cuts.
//
//	go run ./examples/partitioning
package main

import (
	"fmt"

	"snap"
)

func main() {
	const k = 8
	road := snap.RoadMesh(100, 100, 0.12, 1)
	random := snap.ErdosRenyi(road.NumVertices(), 50000, 2)
	small := snap.RMAT(road.NumVertices(), 50000, snap.DefaultRMAT(), 3)

	fmt.Printf("%d-way partitioning, three graph families:\n\n", k)
	fmt.Printf("%-14s %8s %8s %12s %12s %10s\n",
		"family", "n", "m", "kway cut", "spectral cut", "cut %")
	for _, inst := range []struct {
		label string
		g     *snap.Graph
	}{
		{"road mesh", road},
		{"sparse random", random},
		{"small-world", small},
	} {
		kway, err := snap.Partition(inst.g, snap.PartitionOptions{K: k, Seed: 1})
		if err != nil {
			panic(err)
		}
		spectralCell := "-"
		if res, err := snap.SpectralRQI(inst.g, k, snap.SpectralOptions{Seed: 1}); err == nil {
			spectralCell = fmt.Sprint(res.EdgeCut)
		}
		fmt.Printf("%-14s %8d %8d %12d %12s %9.1f%%\n",
			inst.label, inst.g.NumVertices(), inst.g.NumEdges(),
			kway.EdgeCut, spectralCell,
			100*float64(kway.EdgeCut)/float64(inst.g.NumEdges()))
	}

	fmt.Println("\nThe road mesh cuts a tiny fraction of its edges; the small-world")
	fmt.Println("graph loses a large constant fraction no matter the partitioner —")
	fmt.Println("which is why SNAP optimizes modularity instead of balanced cuts")
	fmt.Println("for community detection on small-world networks.")
}
