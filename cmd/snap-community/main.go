// Command snap-community runs the paper's community detection
// algorithms (GN, pBD, pMA, pLA) over a graph and reports modularity,
// community structure, and timing.
//
// Usage:
//
//	snap-community -dataset Karate -algo all
//	snap-community -i g.txt -algo pbd -patience 500
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"snap/internal/community"
	"snap/internal/datasets"
	"snap/internal/graph"
)

func main() {
	var (
		in       = flag.String("i", "", "input edge list ('-' = stdin)")
		dataset  = flag.String("dataset", "", "built-in instance label (e.g. Karate, E-mail, PPI)")
		scale    = flag.Float64("scale", 1, "scale for built-in instances")
		algo     = flag.String("algo", "all", "algorithm: gn | pbd | pma | pla | spectral | louvain | lpa | all")
		patience = flag.Int("patience", 0, "divisive stop patience (0 = full trajectory)")
		sample   = flag.Float64("sample", 0.05, "pBD betweenness sampling fraction")
		bridges  = flag.Bool("bridges", true, "pBD: use the biconnected-components bridge heuristic")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		show     = flag.Int("show", 5, "print the largest K communities of each result")
		dotOut   = flag.String("dot", "", "write the best clustering as GraphViz DOT to this path")
		dendOut  = flag.String("dendrogram", "", "write the divisive/agglomerative trajectory as JSON to this path")
	)
	flag.Parse()

	g, err := load(*in, *dataset, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snap-community: %v\n", err)
		os.Exit(1)
	}
	if g.Directed() {
		// The paper ignores edge directivity for community detection.
		g = graph.Undirected(g)
	}
	fmt.Printf("graph: %v\n\n", g)

	var best community.Clustering
	var bestDend *community.Dendrogram
	run := func(name string, f func() (community.Clustering, *community.Dendrogram)) {
		start := time.Now()
		c, dend := f()
		dur := time.Since(start)
		fmt.Printf("%-4s  Q=%.4f  communities=%d  time=%.2fs\n", name, c.Q, c.Count, dur.Seconds())
		sizes := c.Sizes()
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		top := sizes
		if len(top) > *show {
			top = top[:*show]
		}
		fmt.Printf("      largest communities: %v\n", top)
		if c.Q > best.Q || best.Assign == nil {
			best = c
			if dend != nil {
				bestDend = dend
			}
		}
	}

	want := func(a string) bool { return *algo == "all" || *algo == a }
	if want("gn") {
		run("GN", func() (community.Clustering, *community.Dendrogram) {
			return community.GirvanNewman(g, community.GNOptions{
				Workers: *workers, Patience: *patience,
			})
		})
	}
	if want("pbd") {
		run("pBD", func() (community.Clustering, *community.Dendrogram) {
			return community.PBD(g, community.PBDOptions{
				Workers:            *workers,
				Seed:               *seed,
				SampleFraction:     *sample,
				UseBridgeHeuristic: *bridges,
				Patience:           *patience,
			})
		})
	}
	if want("pma") {
		run("pMA", func() (community.Clustering, *community.Dendrogram) {
			return community.PMA(g, community.PMAOptions{
				Workers: *workers, StopWhenNegative: true,
			})
		})
	}
	if want("pla") {
		run("pLA", func() (community.Clustering, *community.Dendrogram) {
			return community.PLA(g, community.PLAOptions{Workers: *workers, Seed: *seed}), nil
		})
	}
	if want("spectral") {
		run("spec", func() (community.Clustering, *community.Dendrogram) {
			return community.SpectralCommunities(g, community.SpectralOptions{Seed: *seed}), nil
		})
	}
	if want("louvain") {
		run("louv", func() (community.Clustering, *community.Dendrogram) {
			return community.Louvain(g, community.LouvainOptions{Workers: *workers, Seed: *seed}), nil
		})
	}
	if want("lpa") {
		run("lpa", func() (community.Clustering, *community.Dendrogram) {
			return community.LabelPropagation(g, 0, *seed), nil
		})
	}

	if *dotOut != "" && best.Assign != nil {
		f, err := os.Create(*dotOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snap-community: %v\n", err)
			os.Exit(1)
		}
		if err := graph.WriteDOT(f, g, best.Assign); err != nil {
			fmt.Fprintf(os.Stderr, "snap-community: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote best clustering (Q=%.3f) as DOT to %s\n", best.Q, *dotOut)
	}
	if *dendOut != "" && bestDend != nil {
		data, err := json.Marshal(bestDend)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snap-community: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*dendOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "snap-community: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote dendrogram (%d events) to %s\n", bestDend.Len(), *dendOut)
	}
}

func load(in, dataset string, scale float64) (*graph.Graph, error) {
	switch {
	case dataset != "":
		net, err := datasets.ByLabel(dataset)
		if err != nil {
			return nil, err
		}
		return net.Build(scale), nil
	case in == "-":
		return graph.ReadEdgeList(os.Stdin, false)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f, false)
	}
	return nil, fmt.Errorf("need -i or -dataset")
}
