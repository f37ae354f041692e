// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). Each experiment
// prints the paper's reported values next to the values measured on
// this machine, so the reproduction can be judged row by row.
// The cmd/snap-bench binary is a thin wrapper over this package; the
// root-level testing.B benchmarks run the same kernels at fixed sizes
// without it. See EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/partition"
)

// Config controls experiment sizing. The zero value is completed by
// fill() with defaults sized for a single-machine run.
type Config struct {
	// Out receives the experiment report.
	Out io.Writer
	// Scale multiplies every instance size (1 = the paper's sizes).
	// The defaults below assume a small multi-purpose machine; pass
	// -scale 1 for paper-sized runs.
	Scale float64
	// K is the part count for Table 1 (paper: 32).
	K int
	// Workers is the thread sweep for the speedup figures
	// (paper: 1..32 on the Sun Fire T2000).
	Workers []int
	// GNMaxN bounds the instance size for full Girvan–Newman runs in
	// Table 2; larger instances print "-" (the paper ran GN on all six,
	// on wall-clock budgets this harness does not assume).
	GNMaxN int
	// Seed drives all generators.
	Seed int64
}

func (c *Config) fill() {
	if c.Out == nil {
		panic("bench: Config.Out is required")
	}
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.K <= 0 {
		c.K = 32
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8, 16, 32}
	}
	if c.GNMaxN <= 0 {
		c.GNMaxN = 1200
	}
	if c.Seed == 0 {
		c.Seed = 20080414 // IPDPS 2008
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// Table1 reproduces the paper's Table 1: edge cut of a K-way
// partitioning of three equal-sized graph families — a road network, a
// sparse random graph, and a synthetic small-world network — under
// four partitioners (Metis-kway / Metis-recur analogues and Chaco-RQI /
// Chaco-LAN spectral analogues). The paper's numbers (200k vertices,
// 1M edges, 32 parts): road 1856/1703/2937/3913; sparse random
// 685k/707k/718k/738k; small-world 806k/737k/–/–.
func Table1(cfg Config) {
	cfg.fill()
	w := cfg.Out
	n := int(200000 * cfg.Scale)
	m := int(1000000 * cfg.Scale)
	if n < 256 {
		n, m = 256, 1280
	}
	side := int(math.Sqrt(float64(n)))
	fmt.Fprintf(w, "== Table 1: %d-way partition edge cut (scale %.3g of 200k vertices / 1M edges) ==\n", cfg.K, cfg.Scale)
	fmt.Fprintf(w, "Paper shape: random & small-world cuts ~2 orders of magnitude above road;\n")
	fmt.Fprintf(w, "spectral methods may fail to complete on the small-world instance.\n")
	fmt.Fprintf(w, "The road instance is built at realistic road density (~2.2 edges/vertex,\n")
	fmt.Fprintf(w, "near-planar), matching the topology that gives physical networks their\n")
	fmt.Fprintf(w, "small cuts; the random and small-world instances carry the full m.\n\n")

	instances := []struct {
		label string
		g     *graph.Graph
	}{
		{"Physical (road)", generate.RoadMesh(side, side, 0.12, cfg.Seed)},
		{"Sparse random", generate.ErdosRenyi(n, m, cfg.Seed+1)},
		{"Small-world", generate.RMAT(n, m, generate.DefaultRMAT(), cfg.Seed+2)},
	}
	methods := []struct {
		label string
		run   func(g *graph.Graph) (partition.Result, error)
	}{
		{"Metis-kway", func(g *graph.Graph) (partition.Result, error) {
			return partition.MultilevelKWay(g, cfg.K, partition.MultilevelOptions{Seed: cfg.Seed})
		}},
		{"Metis-recur", func(g *graph.Graph) (partition.Result, error) {
			return partition.MultilevelRecursive(g, cfg.K, partition.MultilevelOptions{Seed: cfg.Seed})
		}},
		{"Chaco-RQI", func(g *graph.Graph) (partition.Result, error) {
			return partition.SpectralRQI(g, cfg.K, partition.SpectralOptions{Seed: cfg.Seed})
		}},
		{"Chaco-LAN", func(g *graph.Graph) (partition.Result, error) {
			return partition.SpectralLanczos(g, cfg.K, partition.SpectralOptions{Seed: cfg.Seed})
		}},
	}
	fmt.Fprintf(w, "%-18s %9s %9s %15s %15s %15s %15s\n", "Graph Instance", "n", "m",
		methods[0].label, methods[1].label, methods[2].label, methods[3].label)
	for _, inst := range instances {
		fmt.Fprintf(w, "%-18s %9d %9d", inst.label, inst.g.NumVertices(), inst.g.NumEdges())
		for _, mth := range methods {
			var res partition.Result
			var err error
			dur := timed(func() { res, err = mth.run(inst.g) })
			if err != nil {
				fmt.Fprintf(w, " %15s", "-")
				continue
			}
			fmt.Fprintf(w, " %9d(%4.1fs)", res.EdgeCut, seconds(dur))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// setWorkers sets GOMAXPROCS to one sweep entry for a measurement and
// returns a function that restores the previous value.
func setWorkers(n int) (restore func()) {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}
