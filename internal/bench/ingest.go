package bench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"snap/internal/centrality"
	"snap/internal/components"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/ingest"
)

// Ingest measures the snapshot-epoch streaming pipeline on one R-MAT
// instance (cfg.Scale = 1 is RMAT scale 18; 4 is scale 20):
//
//   - Commit latency vs batch size: the delta-merge commit against the
//     two from-scratch baselines a pre-epoch system pays — re-parsing
//     the updated text edge list, and re-running Build over the
//     materialized edge list.
//   - Incremental kernels vs recompute on a 1% delta: maintained
//     PageRank (warm start from the previous epoch's scores) vs cold
//     power iteration, and maintained connected components (union-find
//     fast path) vs a full sweep.
//
// This experiment has no counterpart in the paper's evaluation; it
// sizes the dynamic-graph layer built on the paper's stated
// future-work direction.
func Ingest(cfg Config) {
	cfg.fill()
	w := cfg.Out
	n := int(float64(1<<18) * cfg.Scale)
	if n < 1<<12 {
		n = 1 << 12
	}
	m := 8 * n
	g := generate.RMAT(n, m, generate.DefaultRMAT(), cfg.Seed)
	fmt.Fprintf(w, "== Ingest: snapshot-epoch commits on RMAT n=%d m=%d (scale %.3g of 2^18 vertices) ==\n",
		g.NumVertices(), g.NumEdges(), cfg.Scale)

	fracs := []float64{0.001, 0.005, 0.01, 0.02}
	if cfg.Fast {
		fracs = []float64{0.01}
	}

	fmt.Fprintf(w, "\n-- commit latency vs batch size (70%% inserts / 30%% deletes) --\n")
	fmt.Fprintf(w, "%8s %9s %12s %14s %9s %14s %9s\n",
		"batch", "|delta|", "commit ms", "text-rebuild", "speedup", "build-rebuild", "speedup")
	reps := 3
	for _, frac := range fracs {
		add, del := ingestDelta(g, frac, cfg.Seed+7)

		// The epoch path: buffered delta -> MergeDelta -> publish.
		// Best-of-reps, each on a fresh stream (a commit consumes its
		// pending delta).
		commitDur := time.Duration(1<<62 - 1)
		var next *graph.Graph
		for r := 0; r < reps; r++ {
			s := ingest.New(cloneGraph(g), ingest.Options{})
			for _, e := range add {
				s.Add(e.U, e.V)
			}
			for _, e := range del {
				s.Delete(e.U, e.V)
			}
			d := timed(func() {
				if _, err := s.Commit(); err != nil {
					panic(err)
				}
			})
			if d < commitDur {
				commitDur = d
			}
			if next == nil {
				e := s.Pin()
				next = cloneGraph(e.Graph())
				e.Close()
			}
			s.Close()
		}

		// Baseline 1: the seed-era path — serialize the updated graph
		// back to the text edge list and re-enter through the parser.
		// Both halves are inside the timer: a from-scratch text-path
		// rebuild of an updated graph has to write the new list before
		// it can re-read it.
		textDur := bestOf(reps, func() {
			var text bytes.Buffer
			if err := graph.WriteEdgeList(&text, next); err != nil {
				panic(err)
			}
			if _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), false); err != nil {
				panic(err)
			}
		})

		// Baseline 2: rebuild from an already-materialized edge list —
		// the floor any from-scratch path pays.
		edges := next.EdgeEndpoints()
		buildDur := bestOf(reps, func() {
			if _, err := graph.Build(n, edges, graph.BuildOptions{}); err != nil {
				panic(err)
			}
		})

		fmt.Fprintf(w, "%7.1f%% %9d %12.2f %14.2f %8.1fx %14.2f %8.1fx\n",
			100*frac, len(add)+len(del),
			ms(commitDur), ms(textDur), ratio(textDur, commitDur),
			ms(buildDur), ratio(buildDur, commitDur))
	}

	fmt.Fprintf(w, "\n-- incremental kernels vs recompute (1%% delta) --\n")
	add, del := ingestDelta(g, 0.01, cfg.Seed+13)
	s := ingest.New(cloneGraph(g), ingest.Options{})
	defer s.Close()

	// Warm the maintained kernels on the base epoch.
	prOpt := centrality.PageRankOptions{}
	s.PageRank(prOpt)
	s.Components()

	for _, e := range add {
		s.Add(e.U, e.V)
	}
	for _, e := range del {
		s.Delete(e.U, e.V)
	}
	if _, err := s.Commit(); err != nil {
		panic(err)
	}
	e := s.Pin()
	defer e.Close()

	var inc, full []float64
	incDur := timed(func() { inc = s.PageRank(prOpt) })
	fullDur := timed(func() { full = centrality.PageRank(e.Graph(), prOpt) })
	var l1 float64
	for i := range full {
		l1 += math.Abs(inc[i] - full[i])
	}
	fmt.Fprintf(w, "%-28s %10.2f ms   full %10.2f ms   speedup %5.1fx   L1 %.2g\n",
		"PageRank (warm start)", ms(incDur), ms(fullDur), ratio(fullDur, incDur), l1)

	ccDur := timed(func() { s.Components() })
	var lab components.Labeling
	ccFullDur := timed(func() { lab = components.Connected(e.Graph(), nil) })
	fmt.Fprintf(w, "%-28s %10.2f ms   full %10.2f ms   speedup %5.1fx   comps %d\n",
		"Components (delta w/ splits)", ms(ccDur), ms(ccFullDur), ratio(ccFullDur, ccDur), lab.Count)

	// Insert-only commit: the union-find fast path keeps the tracker
	// live through the commit, so the post-commit query is a cache hit.
	add2, _ := ingestDelta(g, 0.01, cfg.Seed+21)
	for _, e := range add2 {
		s.Add(e.U, e.V)
	}
	if _, err := s.Commit(); err != nil {
		panic(err)
	}
	e2 := s.Pin()
	defer e2.Close()
	ccIncDur := timed(func() { s.Components() })
	var lab2 components.Labeling
	ccFull2Dur := timed(func() { lab2 = components.Connected(e2.Graph(), nil) })
	fmt.Fprintf(w, "%-28s %10.2f ms   full %10.2f ms   speedup %5.1fx   comps %d\n",
		"Components (insert-only)", ms(ccIncDur), ms(ccFull2Dur), ratio(ccFull2Dur, ccIncDur), lab2.Count)
	fmt.Fprintln(w)
}

func ingestDelta(g *graph.Graph, frac float64, seed int64) (add, del []graph.Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := int32(g.NumVertices())
	k := int(frac * float64(g.NumEdges()))
	ends := g.EdgeEndpoints()
	for i := 0; i < k; i++ {
		if i%10 < 7 {
			add = append(add, graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
		} else {
			del = append(del, ends[rng.Intn(len(ends))])
		}
	}
	return add, del
}

func cloneGraph(g *graph.Graph) *graph.Graph {
	out, err := graph.MergeDelta(g, nil, nil)
	if err != nil {
		panic(err)
	}
	return out
}

func bestOf(n int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		if d := timed(f); d < best {
			best = d
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
