package bench

import (
	"fmt"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/partition"
	"snap/internal/shard"
)

// Partition measures the parallel multilevel k-way engine and the
// partition-blocked layout it enables:
//
//   - Partitioner throughput and quality (edge cut, balance) on the
//     paper's two instance families — an RMAT small-world graph, where
//     coarsening must survive the power-law degree tail, and a sparse
//     road-style mesh, where cuts are small and balance is tight.
//   - The blocked-layout payoff: BFS and PageRank on the original
//     vertex order versus the same kernels on the partition-blocked
//     relabeled graph executed shard-locally, where each shard walks
//     one contiguous id block and most neighbor reads stay inside it.
//
// The paper partitions to place work, not just to report cut numbers;
// this experiment closes that loop in-process.
func Partition(cfg Config) {
	cfg.fill()
	w := cfg.Out
	n := int(float64(1<<18) * cfg.Scale)
	if n < 1<<12 {
		n = 1 << 12
	}
	side := 1
	for side*side < n/4 {
		side++
	}
	reps := 3
	if cfg.Fast {
		reps = 1
	}
	k := cfg.K
	instances := []struct {
		label string
		g     *graph.Graph
	}{
		{fmt.Sprintf("RMAT n=%d m=%d", n, 8*n), generate.RMAT(n, 8*n, generate.DefaultRMAT(), cfg.Seed)},
		{fmt.Sprintf("mesh %dx%d", side, side), generate.RoadMesh(side, side, 0.1, cfg.Seed+1)},
	}
	fmt.Fprintf(w, "== Partition: multilevel k-way (k=%d) + partition-blocked shard-local kernels ==\n", k)
	fmt.Fprintf(w, "%-24s %10s %12s %8s %10s %10s %10s %10s %10s %10s\n",
		"instance", "part(s)", "cut", "bal",
		"bfs", "bfs-rlb", "bfs-shard", "pr", "pr-rlb", "pr-shard")
	var ladders []ladder
	for _, inst := range instances {
		g := inst.g
		var res partition.Result
		var err error
		var st partition.Stats
		dPart := timedMin(reps, func() {
			res, err = partition.MultilevelKWay(g, k, partition.MultilevelOptions{Seed: cfg.Seed, Stats: &st})
		})
		if err != nil {
			fmt.Fprintf(w, "%-24s partition failed: %v\n", inst.label, err)
			continue
		}
		perm, bounds, err := partition.BlockedPerm(g, res.Part, k)
		if err != nil {
			fmt.Fprintf(w, "%-24s blocked perm failed: %v\n", inst.label, err)
			continue
		}
		rg, _, err := graph.Relabel(g, perm)
		if err != nil {
			fmt.Fprintf(w, "%-24s relabel failed: %v\n", inst.label, err)
			continue
		}
		s, err := shard.New(rg, bounds)
		if err != nil {
			fmt.Fprintf(w, "%-24s shard wrap failed: %v\n", inst.label, err)
			continue
		}
		// Three timings per kernel: the original vertex order, the
		// same kernel on the partition-blocked relabeled graph (the
		// pure layout effect), and the BSP shard-local execution on
		// the blocked graph (layout + owner-exclusive supersteps).
		dBFS := timedMin(reps, func() { bfs.Parallel(g, 0, bfs.Options{}) })
		dBFSRlb := timedMin(reps, func() { bfs.Parallel(rg, 0, bfs.Options{}) })
		dBFSShard := timedMin(reps, func() { s.BFS(0, 0) })
		prOpt := centrality.PageRankOptions{MaxIterations: 30, Tolerance: 1e-15}
		dPR := timedMin(reps, func() { centrality.PageRank(g, prOpt) })
		dPRRlb := timedMin(reps, func() { centrality.PageRank(rg, prOpt) })
		sprOpt := shard.PageRankOptions{MaxIterations: 30, Tolerance: 1e-15}
		dPRShard := timedMin(reps, func() { s.PageRank(sprOpt) })
		fmt.Fprintf(w, "%-24s %10.3f %12d %8.3f %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			inst.label, seconds(dPart), res.EdgeCut, res.Balance,
			seconds(dBFS), seconds(dBFSRlb), seconds(dBFSShard),
			seconds(dPR), seconds(dPRRlb), seconds(dPRShard))
		ladders = append(ladders, ladder{inst.label, st})
	}
	fmt.Fprintln(w)
	// The hierarchy behind each partition time above: what every level
	// shrank to, and what refining it cost (share = evaluated over
	// passes·n, the rest being what the active-set rule skipped).
	for _, l := range ladders {
		fmt.Fprintf(w, "-- k-way levels: %s --\n", l.label)
		fmt.Fprintf(w, "%5s %10s %10s %8s %8s %7s %12s %7s %10s\n",
			"level", "n", "arcs", "shrink", "arcs/n", "passes", "evaluated", "share", "moves")
		for li := 0; li < min(l.st.Levels, partition.MaxStatsLevels); li++ {
			ls := l.st.Level[li]
			shrink := "-"
			if ls.CoarseN > 0 {
				shrink = fmt.Sprintf("%.3f", float64(ls.CoarseN)/float64(ls.N))
			}
			fmt.Fprintf(w, "%5d %10d %10d %8s %8.1f %7d %12d %7.2f %10d\n",
				li, ls.N, ls.Arcs, shrink, float64(ls.Arcs)/float64(ls.N), ls.Passes,
				ls.Evaluated, float64(ls.Evaluated)/float64(int64(ls.Passes)*ls.N), ls.Moves)
		}
		fmt.Fprintln(w)
	}
}

type ladder struct {
	label string
	st    partition.Stats
}
