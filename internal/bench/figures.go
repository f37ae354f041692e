package bench

import (
	"fmt"
	"slices"
	"time"

	"snap/internal/community"
	"snap/internal/datasets"
	"snap/internal/graph"
)

// figurePBDOptions builds the pBD options used across the figure experiments
// so thread sweeps compare identical work.
func figurePBDOptions(seed int64, workers int) community.PBDOptions {
	return community.PBDOptions{
		Workers:            workers,
		Seed:               seed,
		SampleFraction:     0.01,
		RefreshInterval:    64,
		SwitchThreshold:    128,
		UseBridgeHeuristic: true,
		Patience:           300,
		MaxRemovals:        1000,
	}
}

// Figure2 reproduces the paper's Figure 2: execution time and relative
// speedup of pBD, pMA, and pLA on the RMAT-SF instance as the thread
// count grows (paper: 1..32 hardware threads on the Sun Fire T2000,
// reaching speedups of ~13, ~9, and ~12). GOMAXPROCS is raised to the
// sweep value for each measurement so the goroutine workers can
// actually run in parallel when the host has the cores.
func Figure2(cfg Config) {
	cfg.fill()
	w := cfg.Out
	rm, _ := datasets.ByLabel("RMAT-SF")
	g := rm.Build(cfg.Scale)
	fmt.Fprintf(w, "== Figure 2: community detection scaling on RMAT-SF (n=%d, m=%d) ==\n",
		g.NumVertices(), g.NumEdges())
	fmt.Fprintf(w, "Paper speedups at 32 threads: pBD ~13x, pMA ~9x, pLA ~12x.\n")
	fmt.Fprintf(w, "Notes: speedup is bounded by the host's core count; pBD runs a capped\n")
	fmt.Fprintf(w, "removal budget (timing workload), so its Q here is not a quality result.\n\n")
	fmt.Fprintf(w, "%8s %12s %8s %12s %8s %12s %8s\n",
		"threads", "pBD(s)", "rel", "pMA(s)", "rel", "pLA(s)", "rel")

	var base [3]float64
	for wi, workers := range cfg.Workers {
		restore := setWorkers(workers)
		var q [3]float64
		tPBD := timed(func() {
			c, _ := community.PBD(g, figurePBDOptions(cfg.Seed, workers))
			q[0] = c.Q
		})
		tPMA := timed(func() {
			c, _ := community.PMA(g, community.PMAOptions{Workers: workers, StopWhenNegative: true})
			q[1] = c.Q
		})
		tPLA := timed(func() {
			c := community.PLA(g, community.PLAOptions{Workers: workers, Seed: cfg.Seed})
			q[2] = c.Q
		})
		restore()
		ts := [3]float64{seconds(tPBD), seconds(tPMA), seconds(tPLA)}
		if wi == 0 {
			base = ts
		}
		fmt.Fprintf(w, "%8d %12.2f %8.2f %12.2f %8.2f %12.2f %8.2f\n",
			workers,
			ts[0], base[0]/ts[0],
			ts[1], base[1]/ts[1],
			ts[2], base[2]/ts[2])
		if wi == len(cfg.Workers)-1 {
			fmt.Fprintf(w, "  (modularity at final sweep: pBD %.3f, pMA %.3f, pLA %.3f)\n",
				q[0], q[1], q[2])
		}
	}
	fmt.Fprintln(w)
}

// figure3Instances selects the real-world instances of Figure 3 with
// per-instance default scales sized for a single machine; cfg.Scale
// multiplies them (1.0 => 0.1 of paper size for the two large webs).
func figure3Instances(cfg Config) []struct {
	label string
	g     *graph.Graph
} {
	mult := cfg.Scale * 10 // cfg default 0.1 => mult 1 => defaults below
	pick := func(label string, def float64) *graph.Graph {
		net, err := datasets.ByLabel(label)
		if err != nil {
			panic(err)
		}
		s := def * mult
		if s > 1 {
			s = 1
		}
		return net.Build(s)
	}
	return []struct {
		label string
		g     *graph.Graph
	}{
		{"PPI", pick("PPI", 1.0)},
		{"Citations", pick("Citations", 0.25)},
		{"DBLP", pick("DBLP", 0.03)},
		{"NDwww", pick("NDwww", 0.03)},
	}
}

// Figure3a reproduces the paper's Figure 3(a): the speedup of pBD over
// the GN baseline, decomposed into the algorithm-engineering factor
// (approximate betweenness + small-world optimizations, single thread)
// and the parallel factor. The paper reports e.g. 26x engineering and
// 13.2x parallel (343x total) on NDwww.
//
// GN's full runtime is impractical at these sizes (that is the point
// of the experiment), so the GN cost is metered over its first
// removals and extrapolated to the removal count pBD needed for its
// best clustering; the extrapolation uses the most expensive (early,
// whole-graph) iterations and is therefore a conservative estimate of
// true GN cost per removal.
func Figure3a(cfg Config) {
	cfg.fill()
	w := cfg.Out
	fmt.Fprintf(w, "== Figure 3(a): pBD speedup over GN (engineering x parallel) ==\n\n")
	fmt.Fprintf(w, "%-10s %8s %8s %12s %12s %12s %10s %10s %10s\n",
		"Instance", "n", "m", "GN est(s)", "pBD 1T(s)", "pBD WT(s)", "eng. x", "par. x", "total x")

	maxWorkers := slices.Max(cfg.Workers)
	for _, inst := range figure3Instances(cfg) {
		g := inst.g
		// pBD, single thread.
		var removals int
		restore := setWorkers(1)
		t1 := timed(func() {
			_, dend := community.PBD(g, figurePBDOptions(cfg.Seed, 1))
			removals = dend.Len()
		})
		restore()
		// pBD, full thread sweep value.
		restore = setWorkers(maxWorkers)
		tW := timed(func() {
			community.PBD(g, figurePBDOptions(cfg.Seed, maxWorkers))
		})
		restore()
		// Metered GN: a two-point fit separates the one-time setup
		// (initial exact betweenness) from the per-removal cost, then
		// extrapolates to the removal count pBD needed. Early
		// (whole-graph) removals are the costliest, so this estimate
		// is an upper bound on true GN time — the paper's full-run
		// ratios (9-26x engineering) are the calibrated reference.
		restore = setWorkers(1)
		t1rm := timed(func() {
			community.GirvanNewman(g, community.GNOptions{Workers: 1, MaxRemovals: 1})
		})
		meter := 8
		tMeter := timed(func() {
			community.GirvanNewman(g, community.GNOptions{Workers: 1, MaxRemovals: meter})
		})
		restore()
		perIter := (seconds(tMeter) - seconds(t1rm)) / float64(meter-1)
		if perIter <= 0 {
			perIter = seconds(tMeter) / float64(meter)
		}
		setup := seconds(t1rm) - perIter
		if setup < 0 {
			setup = 0
		}
		gnEst := setup + perIter*float64(removals)
		eng := gnEst / seconds(t1)
		par := seconds(t1) / seconds(tW)
		fmt.Fprintf(w, "%-10s %8d %8d %12.1f %12.2f %12.2f %10.1f %10.2f %10.1f\n",
			inst.label, g.NumVertices(), g.NumEdges(),
			gnEst, seconds(t1), seconds(tW), eng, par, eng*par)
	}
	fmt.Fprintf(w, "\nGN est = metered setup + per-removal cost x the removal count pBD used\n")
	fmt.Fprintf(w, "(an upper bound: GN removals get cheaper as the graph fragments, and pBD\n")
	fmt.Fprintf(w, "amortizes its approximate recomputation across batches of removals).\n")
	fmt.Fprintln(w)
}

// Figure3b reproduces the paper's Figure 3(b): parallel speedup of pMA
// and pLA across the real-world instances (paper: 4-7x at 32 threads).
func Figure3b(cfg Config) {
	cfg.fill()
	w := cfg.Out
	maxWorkers := slices.Max(cfg.Workers)
	fmt.Fprintf(w, "== Figure 3(b): pMA / pLA parallel speedup (1 -> %d threads) ==\n\n", maxWorkers)
	fmt.Fprintf(w, "%-10s %12s %12s %8s %12s %12s %8s\n",
		"Instance", "pMA 1T(s)", "pMA WT(s)", "x", "pLA 1T(s)", "pLA WT(s)", "x")
	for _, inst := range figure3Instances(cfg) {
		g := inst.g
		run := func(workers int) (float64, float64) {
			restore := setWorkers(workers)
			defer restore()
			tMA := timed(func() {
				community.PMA(g, community.PMAOptions{Workers: workers, StopWhenNegative: true})
			})
			tLA := timed(func() {
				community.PLA(g, community.PLAOptions{Workers: workers, Seed: cfg.Seed})
			})
			return seconds(tMA), seconds(tLA)
		}
		ma1, la1 := run(1)
		maW, laW := run(maxWorkers)
		fmt.Fprintf(w, "%-10s %12.2f %12.2f %8.2f %12.2f %12.2f %8.2f\n",
			inst.label, ma1, maW, ma1/maW, la1, laW, la1/laW)
	}
	fmt.Fprintln(w)
}

// All runs every experiment in paper order.
func All(cfg Config) {
	cfg.fill()
	start := time.Now()
	Table1(cfg)
	Table2(cfg)
	Table3(cfg)
	Figure2(cfg)
	Figure3a(cfg)
	Figure3b(cfg)
	Ablations(cfg)
	fmt.Fprintf(cfg.Out, "total harness time: %.1fs\n", time.Since(start).Seconds())
}
