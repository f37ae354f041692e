package bench

import (
	"fmt"
	"io"
	"math"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/generate"
	"snap/internal/metrics"
	"snap/internal/sketch"
)

// Sketch measures the approximate-analytics tier against the exact
// kernels it shadows, on one R-MAT instance (cfg.Scale = 1 is RMAT
// scale 18, i.e. 2^18 vertices; 4 is scale 20):
//
//   - HyperANF effective diameter + average path length vs the exact
//     iFUB diameter and the sampled-BFS path length, with observed
//     error against a many-source BFS distance histogram (the
//     reference estimates the pair-distance distribution to well under
//     1% at 1024 sources — far below the sketch error it referees).
//   - Eppstein–Wang sampled closeness vs the exact O(nm) kernel on a
//     subinstance the exact kernel can finish, with the max observed
//     per-vertex average-distance error against the Hoeffding bound.
//   - Landmark distance-oracle build cost and per-query latency vs a
//     full BFS per query, with the observed bracket width on sampled
//     pairs.
//
// This experiment has no counterpart in the paper's evaluation; it
// sizes the sketch tier the paper's "massive graphs" motivation calls
// for once instances outgrow exact analytics.
func Sketch(cfg Config) {
	cfg.fill()
	w := cfg.Out
	n := int(float64(1<<18) * cfg.Scale)
	if n < 1<<12 {
		n = 1 << 12
	}
	m := 8 * n
	g := generate.RMAT(n, m, generate.DefaultRMAT(), cfg.Seed)
	fmt.Fprintf(w, "== Sketch: approximate analytics vs exact on RMAT n=%d m=%d (scale %.3g of 2^18 vertices) ==\n",
		g.NumVertices(), g.NumEdges(), cfg.Scale)
	reps := 3
	if cfg.Fast {
		reps = 1
	}

	// Reference pair-distance distribution: a BFS distance histogram
	// over refSrc sampled sources (unbiased in the source dimension;
	// its sampling error is far below the sketch errors it referees).
	refSrc := 1024
	if refSrc > n {
		refSrc = n
	}
	var hist []int64
	sources := sketch.SampleVertices(n, refSrc, cfg.Seed+3)
	refDur := timed(func() {
		bfs.MultiSourceWorkspace(g, sources, -1, 0, func(_, _ int, ws *bfs.Workspace) {
			for _, v := range ws.Order() {
				d := int(ws.Dist(v))
				for len(hist) <= d {
					hist = append(hist, 0)
				}
				hist[d]++
			}
		})
	})
	refNF := make([]float64, len(hist))
	acc := int64(0)
	for t, c := range hist {
		acc += c
		refNF[t] = float64(acc)
	}
	refAvg := refAvgPath(refNF)
	refEff := refEffDiam(refNF, 0.9)

	fmt.Fprintf(w, "\n-- neighborhood function: HyperANF vs exact distance tier (best of %d) --\n", reps)
	fmt.Fprintf(w, "%-34s %12s %10s %12s %12s %8s\n", "kernel", "wall ms", "speedup", "value", "reference", "err")

	var anf sketch.ANFResult
	var anfStats sketch.ANFStats
	anfDur := bestOf(reps, func() { anf = sketch.ANF(g, sketch.ANFOptions{Seed: cfg.Seed, Stats: &anfStats}) })

	var exactDiam int
	exactDiamDur := bestOf(reps, func() { exactDiam = metrics.Diameter(g) })

	var exactAvg float64
	exactAvgDur := bestOf(reps, func() {
		exactAvg, _ = metrics.AvgPathLength(g, metrics.PathLengthOptions{Seed: cfg.Seed})
	})

	fmt.Fprintf(w, "%-34s %12.2f %10s %12.3f %12.3f %7.1f%%\n",
		"avg path length (sampled BFS)", ms(exactAvgDur), "1.0x", exactAvg, refAvg, 100*relErrF(exactAvg, refAvg))
	fmt.Fprintf(w, "%-34s %12.2f %9.1fx %12.3f %12.3f %7.1f%%\n",
		"avg path length (HyperANF)", ms(anfDur), ratio(exactAvgDur, anfDur), anf.AvgPathLength, refAvg, 100*relErrF(anf.AvgPathLength, refAvg))
	fmt.Fprintf(w, "%-34s %12.2f %10s %12d %12s %8s\n",
		"diameter (exact iFUB)", ms(exactDiamDur), "1.0x", exactDiam, "-", "-")
	fmt.Fprintf(w, "%-34s %12.2f %9.1fx %12.2f %12.2f %7.1f%%\n",
		"effective diameter (HyperANF)", ms(anfDur), ratio(exactDiamDur, anfDur), anf.EffectiveDiameter, refEff, 100*relErrF(anf.EffectiveDiameter, refEff))
	fmt.Fprintf(w, "one HyperANF run (%d sweeps, %d registers/vertex) serves both statistics: %.1fx vs diameter+path-length combined\n",
		anf.Sweeps, anf.Registers, ratio(exactDiamDur+exactAvgDur, anfDur))
	// The exact neighborhood function — the quantity HyperANF actually
	// approximates — requires one BFS per vertex. Its cost is measured
	// from the reference histogram sweep above (refSrc full BFS runs)
	// and scaled to all n sources; the sampled-BFS row is itself an
	// estimator, not the exact tier.
	perSrcMs := ms(refDur) / float64(refSrc)
	exactNFms := perSrcMs * float64(n)
	fmt.Fprintf(w, "exact NF baseline: all-sources BFS measured at %.2f ms/source over %d sources => %.0f s for n=%d; HyperANF speedup %.0fx\n",
		perSrcMs, refSrc, exactNFms/1000, n, exactNFms/ms(anfDur))

	// Per-sweep record of the run above, and of the same call on a road
	// mesh of about the same size (MaxSweeps 16, as in the repo
	// benchmark's session): the small-world fringe collapses into a few
	// sparse sweeps, the mesh keeps every row changing.
	side := int(math.Sqrt(float64(n)))
	road := generate.RoadMesh(side, side, 0.05, cfg.Seed)
	var roadStats sketch.ANFStats
	roadDur := bestOf(reps, func() {
		sketch.ANF(road, sketch.ANFOptions{Seed: cfg.Seed, MaxSweeps: 16, Stats: &roadStats})
	})
	printANFStats(w, fmt.Sprintf("RMAT n=%d, %.2f ms", n, ms(anfDur)), &anfStats)
	printANFStats(w, fmt.Sprintf("RoadMesh %dx%d, MaxSweeps 16, %.2f ms", side, side, ms(roadDur)), &roadStats)

	// Sampled closeness vs the exact kernel, on the largest subinstance
	// the exact O(nm) kernel finishes comfortably.
	cn := n
	if cn > 1<<14 {
		cn = 1 << 14
	}
	cg := generate.RMAT(cn, 8*cn, generate.DefaultRMAT(), cfg.Seed+1)
	fmt.Fprintf(w, "\n-- closeness: Eppstein–Wang sampling vs exact O(nm) on RMAT n=%d m=%d --\n", cg.NumVertices(), cg.NumEdges())
	exactCloseDur := bestOf(reps, func() {
		centrality.Closeness(cg, centrality.ClosenessOptions{})
	})
	var sampled sketch.ClosenessResult
	opt := sketch.ClosenessOptions{Epsilon: 0.1, Confidence: 0.95, Seed: cfg.Seed}
	sampledDur := bestOf(reps, func() { sampled = sketch.Closeness(cg, opt) })
	// Observed error in the bound's own unit: each vertex's mean
	// distance (to the vertices that reach it) as a fraction of the
	// diameter — the quantity the Hoeffding bound covers. The exact
	// means come from an untimed all-sources sweep.
	nc := cg.NumVertices()
	totals := make([]float64, nc)
	counts := make([]int32, nc)
	all := make([]int32, nc)
	for i := range all {
		all[i] = int32(i)
	}
	bfs.MultiSourceWorkspace(cg, all, -1, 0, func(_, _ int, ws *bfs.Workspace) {
		for _, v := range ws.Order() {
			totals[v] += float64(ws.Dist(v))
			counts[v]++
		}
	})
	diamC := metrics.Diameter(cg)
	maxErr := 0.0
	for v := 0; v < nc; v++ {
		if counts[v] == 0 || sampled.Scores[v] == 0 {
			continue
		}
		trueMean := totals[v] / float64(counts[v])
		estMean := (1 / sampled.Scores[v]) / float64(nc)
		if e := math.Abs(estMean-trueMean) / float64(diamC); e > maxErr {
			maxErr = e
		}
	}
	fmt.Fprintf(w, "%-34s %12.2f ms\n", "exact closeness", ms(exactCloseDur))
	fmt.Fprintf(w, "%-34s %12.2f ms   speedup %5.1fx   pivots %d   max err %.3fΔ (bound %.3fΔ @ %.0f%%)\n",
		"sampled closeness", ms(sampledDur), ratio(exactCloseDur, sampledDur),
		len(sampled.Pivots), maxErr, sampled.Epsilon, 100*sampled.Confidence)

	// Landmark oracle: build once, then amortized O(k) queries vs one
	// BFS per query.
	fmt.Fprintf(w, "\n-- landmark distance oracle (k=16, degree strategy) --\n")
	var oracle *sketch.Oracle
	buildDur := bestOf(reps, func() {
		var err error
		oracle, err = sketch.BuildOracle(g, sketch.OracleOptions{Landmarks: 16, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
	})
	pairs := sketch.SampleVertices(n, 400, cfg.Seed+5)
	queryDur := bestOf(reps, func() {
		for i := 0; i+1 < len(pairs); i += 2 {
			oracle.Estimate(pairs[i], pairs[i+1])
		}
	})
	nq := len(pairs) / 2
	// Exact answers for the sampled pairs: one BFS per distinct source.
	exactQ := map[int32][]int32{}
	srcs := make([]int32, 0, nq)
	for i := 0; i+1 < len(pairs); i += 2 {
		if _, ok := exactQ[pairs[i]]; !ok {
			exactQ[pairs[i]] = nil
			srcs = append(srcs, pairs[i])
		}
	}
	bfsDur := timed(func() {
		bfs.MultiSourceWorkspace(g, srcs, -1, 0, func(_, i int, ws *bfs.Workspace) {
			dist := make([]int32, n)
			for j := range dist {
				dist[j] = -1
			}
			for _, v := range ws.Order() {
				dist[v] = ws.Dist(v)
			}
			exactQ[srcs[i]] = dist
		})
	})
	eligible, exact, within, sumRel := 0, 0, 0, 0.0
	rel := 0
	for i := 0; i+1 < len(pairs); i += 2 {
		d := exactQ[pairs[i]][pairs[i+1]]
		lo, hi := oracle.Estimate(pairs[i], pairs[i+1])
		if d < 0 || hi < 0 {
			continue // disconnected pair, or no landmark in the component
		}
		eligible++
		if lo == hi {
			exact++
		}
		if lo <= d && d <= hi {
			within++
		}
		if d > 0 {
			est := oracle.Distance(pairs[i], pairs[i+1])
			sumRel += math.Abs(float64(est-d)) / float64(d)
			rel++
		}
	}
	fmt.Fprintf(w, "build: %.2f ms (16 BFS sweeps)   query: %.3f µs/pair   BFS per query: %.2f ms (%.0fx)\n",
		ms(buildDur), 1000*ms(queryDur)/float64(nq), ms(bfsDur)/float64(len(srcs)),
		ratio(bfsDur, queryDur)/float64(len(srcs))*float64(nq))
	fmt.Fprintf(w, "sampled pairs: %d (%d connected+covered)   bracketed: %d/%d   exact (lo==hi): %d   mean midpoint error: %.1f%%\n",
		nq, eligible, within, eligible, exact, 100*sumRel/math.Max(float64(rel), 1))
	fmt.Fprintln(w)
}

// printANFStats prints one HyperANF run's per-sweep record.
func printANFStats(w io.Writer, label string, st *sketch.ANFStats) {
	fmt.Fprintf(w, "\n-- HyperANF sweeps: %s --\n", label)
	fmt.Fprintf(w, "%5s %7s %10s %10s %10s %10s\n", "sweep", "mode", "rows", "unions", "words", "changed")
	for i := 0; i < min(st.Sweeps, sketch.MaxStatsSweeps); i++ {
		s := st.Sweep[i]
		mode := "dense"
		if s.Sparse {
			mode = "sparse"
		}
		fmt.Fprintf(w, "%5d %7s %10d %10d %10d %10d\n", i, mode, s.Rows, s.Unions, s.Words, s.Changed)
	}
}

func relErrF(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// refAvgPath and refEffDiam derive the reference statistics from a
// cumulative distance histogram, mirroring the sketch's definitions so
// the comparison is apples-to-apples.
func refAvgPath(nf []float64) float64 {
	if len(nf) < 2 {
		return 0
	}
	base, total := nf[0], nf[len(nf)-1]
	if total <= base {
		return 0
	}
	var sum float64
	for t := 1; t < len(nf); t++ {
		sum += float64(t) * (nf[t] - nf[t-1])
	}
	return sum / (total - base)
}

func refEffDiam(nf []float64, q float64) float64 {
	if len(nf) == 0 {
		return 0
	}
	target := q * nf[len(nf)-1]
	if nf[0] >= target {
		return 0
	}
	for t := 1; t < len(nf); t++ {
		if nf[t] >= target {
			return float64(t-1) + (target-nf[t-1])/(nf[t]-nf[t-1])
		}
	}
	return float64(len(nf) - 1)
}
