// Command snap-analyze runs SNAP's exploratory network analysis over a
// graph: topological metrics, connectivity structure, and centrality
// indices — the workflow of Section 3 of the paper.
//
// Usage:
//
//	snap-gen -type rmat -n 20000 -m 80000 -o g.txt
//	snap-analyze -i g.txt -metrics -components -centrality approx -top 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"snap/internal/centrality"
	"snap/internal/components"
	"snap/internal/datasets"
	"snap/internal/graph"
	"snap/internal/metrics"
	"snap/internal/sketch"
)

func main() {
	var (
		in       = flag.String("i", "", "input edge list ('-' = stdin)")
		dataset  = flag.String("dataset", "", "built-in instance label (e.g. Karate, PPI, RMAT-SF)")
		scale    = flag.Float64("scale", 1, "scale for built-in instances")
		directed = flag.Bool("directed", false, "treat input as directed")
		doMet    = flag.Bool("metrics", false, "report topological metrics")
		doComp   = flag.Bool("components", false, "report connectivity structure")
		cent     = flag.String("centrality", "", "centrality index: degree | closeness | betweenness | approx | pagerank | eigenvector")
		topK     = flag.Int("top", 10, "how many top-ranked vertices to print")
		samples  = flag.Int("samples", 0, "BFS samples for path-length estimation (0 = auto)")
		seed     = flag.Int64("seed", 1, "sampling seed")
		approx   = flag.Bool("approx", false, "route distance metrics and closeness through the sketch tier (HyperANF, sampled closeness)")
		regs     = flag.Int("registers", 0, "HLL registers per vertex under -approx (0 = 64)")
	)
	flag.Parse()

	g, err := load(*in, *dataset, *scale, *directed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snap-analyze: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %v\n", g)

	if !*doMet && !*doComp && *cent == "" {
		*doMet, *doComp = true, true
	}

	if *doMet {
		start := time.Now()
		st := metrics.Degrees(g)
		cc := metrics.GlobalClustering(g, 0)
		tr := metrics.Transitivity(g, 0)
		r := metrics.Assortativity(g)
		avg, diam := metrics.AvgPathLength(g, metrics.PathLengthOptions{
			Samples: *samples, Seed: *seed, Approx: *approx, Registers: *regs,
		})
		bip := metrics.IsBipartite(g)
		fmt.Printf("\n-- metrics (%.2fs) --\n", time.Since(start).Seconds())
		fmt.Printf("degree: min %d, max %d, mean %.2f\n", st.Min, st.Max, st.Mean)
		fmt.Printf("clustering coefficient: %.4f (transitivity %.4f)\n", cc, tr)
		fmt.Printf("assortativity: %+.4f\n", r)
		if *approx {
			eff := metrics.DiameterWithOptions(g, metrics.DiameterOptions{
				Approx: true, Registers: *regs, Seed: *seed,
			})
			fmt.Printf("avg path length: %.3f (sketch; diameter ~ %d, effective %.2f)\n", avg, diam, eff)
		} else {
			fmt.Printf("avg path length: %.3f (diameter >= %d)\n", avg, diam)
		}
		fmt.Printf("bipartite: %v\n", bip)
		fmt.Printf("degeneracy (max k-core): %d\n", metrics.Degeneracy(g))
	}

	if *doComp {
		start := time.Now()
		lab := components.Connected(g, nil)
		bc := components.Biconnected(g)
		_, largest := lab.Largest()
		fmt.Printf("\n-- connectivity (%.2fs) --\n", time.Since(start).Seconds())
		fmt.Printf("connected components: %d (largest %d vertices, %.1f%%)\n",
			lab.Count, largest, 100*float64(largest)/float64(g.NumVertices()))
		fmt.Printf("biconnected components: %d\n", bc.CompCount)
		fmt.Printf("articulation points: %d, bridges: %d\n",
			len(bc.ArticulationPoints()), len(bc.Bridges()))
	}

	if *cent != "" {
		start := time.Now()
		var scores []float64
		switch *cent {
		case "degree":
			scores = centrality.DegreeCentrality(g)
		case "closeness":
			if *approx {
				n := *samples
				if n <= 0 {
					n = 32
				}
				scores = sketch.Closeness(g, sketch.ClosenessOptions{Samples: n, Seed: *seed}).Scores
			} else {
				scores = centrality.Closeness(g, centrality.ClosenessOptions{})
			}
		case "betweenness":
			scores = centrality.Betweenness(g, centrality.BetweennessOptions{ComputeVertex: true}).Vertex
		case "approx":
			scores = centrality.ApproxBetweenness(g, centrality.ApproxOptions{
				Seed: *seed, ComputeVertex: true,
			}).Vertex
		case "pagerank":
			scores = centrality.PageRank(g, centrality.PageRankOptions{})
		case "eigenvector":
			scores = centrality.EigenvectorCentrality(g, 0, 0)
		default:
			fmt.Fprintf(os.Stderr, "snap-analyze: unknown -centrality %q\n", *cent)
			os.Exit(2)
		}
		fmt.Printf("\n-- %s centrality (%.2fs) --\n", *cent, time.Since(start).Seconds())
		for rank, v := range centrality.TopKVertices(scores, *topK) {
			fmt.Printf("%3d. vertex %8d  score %.4g\n", rank+1, v, scores[v])
		}
	}
}

func load(in, dataset string, scale float64, directed bool) (*graph.Graph, error) {
	switch {
	case dataset != "":
		net, err := datasets.ByLabel(dataset)
		if err != nil {
			return nil, err
		}
		return net.Build(scale), nil
	case in == "-":
		return graph.ReadEdgeList(os.Stdin, directed)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f, directed)
	}
	return nil, fmt.Errorf("need -i or -dataset")
}
