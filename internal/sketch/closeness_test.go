package sketch

import (
	"math"
	"testing"

	"snap/internal/bfs"
	"snap/internal/generate"
	"snap/internal/graph"
)

// exactTotals computes each vertex's exact total distance and reached
// count over the whole graph (the quantities Closeness estimates).
func exactTotals(g *graph.Graph) (totals []float64, counts []int32) {
	n := g.NumVertices()
	totals = make([]float64, n)
	counts = make([]int32, n)
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	bfs.MultiSourceWorkspace(g, sources, -1, 1, func(_, _ int, ws *bfs.Workspace) {
		for _, v := range ws.Order() {
			totals[v] += float64(ws.Dist(v))
			counts[v]++
		}
	})
	return totals, counts
}

// TestClosenessFullSamplingIsExact pins that sampling every vertex
// reproduces the exact closeness scores (the estimator is unbiased and
// with k = n the sample IS the population).
func TestClosenessFullSamplingIsExact(t *testing.T) {
	g := generate.RMAT(256, 1024, generate.DefaultRMAT(), 3)
	n := g.NumVertices()
	r := Closeness(g, ClosenessOptions{Samples: n, Seed: 1})
	totals, counts := exactTotals(g)
	for v := 0; v < n; v++ {
		want := 0.0
		if counts[v] > 0 && totals[v] > 0 {
			want = 1 / (totals[v] * float64(n) / float64(counts[v]))
		}
		if math.Abs(r.Scores[v]-want) > 1e-12 {
			t.Fatalf("vertex %d: full-sample score %v, want %v", v, r.Scores[v], want)
		}
	}
	if len(r.Pivots) != n {
		t.Fatalf("full sampling used %d pivots, want %d", len(r.Pivots), n)
	}
}

// TestClosenessRanksCenterOfPath: on a path, the central vertex must
// outrank both endpoints even from a sample of the pivots.
func TestClosenessRanksCenterOfPath(t *testing.T) {
	const n = 101
	edges := make([]graph.Edge, 0, n-1)
	for i := int32(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	g := graph.MustBuild(n, edges, graph.BuildOptions{})
	s := Closeness(g, ClosenessOptions{Samples: 40, Seed: 2, Workers: 2}).Scores
	if s[50] <= s[0] || s[50] <= s[n-1] {
		t.Fatalf("center %g should beat endpoints %g/%g", s[50], s[0], s[n-1])
	}
}

// TestClosenessHoeffdingBound checks the advertised guarantee
// empirically: across seeds, the fraction of trials where EVERY
// vertex's estimated average distance lands within eps·Δ of the truth
// must meet the confidence level.
func TestClosenessHoeffdingBound(t *testing.T) {
	g := generate.ErdosRenyi(400, 1600, 9)
	n := g.NumVertices()
	totals, counts := exactTotals(g)
	// Graph diameter Δ (the Hoeffding range) from the exact sweep.
	var diam float64
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	bfs.MultiSourceWorkspace(g, sources, -1, 1, func(_, _ int, ws *bfs.Workspace) {
		if d := float64(ws.MaxDist()); d > diam {
			diam = d
		}
	})
	const eps, conf = 0.2, 0.9
	k := ClosenessSamples(n, eps, conf)
	good := 0
	const trials = 30
	for seed := int64(1); seed <= trials; seed++ {
		r := Closeness(g, ClosenessOptions{Samples: k, Seed: seed})
		ok := true
		for v := 0; v < n; v++ {
			if counts[v] == 0 {
				continue
			}
			trueAvg := totals[v] / float64(counts[v])
			var estAvg float64
			if r.Scores[v] > 0 {
				estAvg = (1 / r.Scores[v]) / float64(n)
			}
			if math.Abs(estAvg-trueAvg) > eps*diam {
				ok = false
				break
			}
		}
		if ok {
			good++
		}
	}
	if float64(good) < conf*trials {
		t.Fatalf("Hoeffding bound held on %d/%d trials, want >= %.0f", good, trials, conf*trials)
	}
}

// TestClosenessSamplesFormula spot-checks the pivot-count bound and
// its inverse.
func TestClosenessSamplesFormula(t *testing.T) {
	// ln(2*1000/0.05) / (2*0.01) = ln(40000)/0.02 ≈ 529.8 → 530,
	// clamped to n.
	if k := ClosenessSamples(1000, 0.1, 0.95); k != 530 {
		t.Fatalf("ClosenessSamples(1000, 0.1, 0.95) = %d, want 530", k)
	}
	if k := ClosenessSamples(100, 0.1, 0.95); k != 100 {
		t.Fatalf("clamp to n failed: %d", k)
	}
	if k := ClosenessSamples(0, 0.1, 0.95); k != 0 {
		t.Fatalf("empty graph wants 0 samples, got %d", k)
	}
	// NaN means the default, as 0 does: eps 0.1 at confidence 0.95.
	if k := ClosenessSamples(1000, math.NaN(), math.NaN()); k != 530 {
		t.Fatalf("ClosenessSamples(1000, NaN, NaN) = %d, want 530", k)
	}
	// Round-trip: eps achieved by the returned k is <= the requested eps.
	k := ClosenessSamples(1<<20, 0.05, 0.99)
	if got := closenessEpsilon(1<<20, k, 0.99); got > 0.05+1e-9 {
		t.Fatalf("achieved eps %.4f > requested 0.05", got)
	}
}

// TestClosenessWorkerInvariance pins bitwise determinism of the scores
// across worker counts (integer-exact float64 accumulation).
func TestClosenessWorkerInvariance(t *testing.T) {
	g := generate.RMAT(800, 3200, generate.DefaultRMAT(), 4)
	base := Closeness(g, ClosenessOptions{Samples: 48, Seed: 2, Workers: 1})
	for _, w := range []int{2, 3, 8} {
		got := Closeness(g, ClosenessOptions{Samples: 48, Seed: 2, Workers: w})
		for v := range base.Scores {
			if got.Scores[v] != base.Scores[v] {
				t.Fatalf("workers=%d: Scores[%d] = %v, want %v (bitwise)", w, v, got.Scores[v], base.Scores[v])
			}
		}
	}
}

// TestClosenessSeedZeroIsDefault pins the unified seed contract.
func TestClosenessSeedZeroIsDefault(t *testing.T) {
	g := generate.ErdosRenyi(300, 900, 5)
	zero := Closeness(g, ClosenessOptions{Samples: 16, Seed: 0})
	def := Closeness(g, ClosenessOptions{Samples: 16, Seed: DefaultSeed})
	for i := range zero.Pivots {
		if zero.Pivots[i] != def.Pivots[i] {
			t.Fatal("seed 0 sampled different pivots than DefaultSeed")
		}
	}
	for v := range zero.Scores {
		if zero.Scores[v] != def.Scores[v] {
			t.Fatal("seed 0 scores differ from DefaultSeed")
		}
	}
}

// TestClosenessDisconnected checks the reached-count scaling on a
// two-component graph: scores stay finite and vertices in components no
// pivot reaches score zero.
func TestClosenessDisconnected(t *testing.T) {
	// Component A: path 0-1-2; component B: triangle 3-4-5.
	g, err := graph.Build(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := Closeness(g, ClosenessOptions{Samples: 6, Seed: 1})
	for v, s := range r.Scores {
		if math.IsInf(s, 0) || math.IsNaN(s) || s < 0 {
			t.Fatalf("vertex %d: score %v", v, s)
		}
	}
	// With all 6 pivots, triangle vertices have total 2, counts 3:
	// est = 2*6/3 = 4 → 0.25.
	for v := 3; v < 6; v++ {
		if math.Abs(r.Scores[v]-0.25) > 1e-12 {
			t.Fatalf("triangle vertex %d score %v, want 0.25", v, r.Scores[v])
		}
	}
}

// TestClosenessDerivedEpsilon checks that the result echoes the
// realized error bound for an explicit sample count.
func TestClosenessDerivedEpsilon(t *testing.T) {
	g := generate.ErdosRenyi(500, 2000, 11)
	r := Closeness(g, ClosenessOptions{Samples: 100, Seed: 1})
	want := closenessEpsilon(500, 100, 0.95)
	if math.Abs(r.Epsilon-want) > 1e-12 || r.Confidence != 0.95 {
		t.Fatalf("echoed bound (%v, %v), want (%v, 0.95)", r.Epsilon, r.Confidence, want)
	}
}
