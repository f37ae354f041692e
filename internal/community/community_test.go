package community

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/graph"
)

func buildGraph(t *testing.T, n int, pairs [][2]int32) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{U: p[0], V: p[1]}
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoTriangles is the classic two-community toy graph: triangles
// {0,1,2} and {3,4,5} joined by one edge.
func twoTriangles(t *testing.T) *graph.Graph {
	return buildGraph(t, 6, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
}

func TestModularityKnownValues(t *testing.T) {
	g := twoTriangles(t)
	// Perfect split: Q = (3/7 - (7/14)^2) * 2 = 6/7 - 1/2 = 5/14.
	assign := []int32{0, 0, 0, 1, 1, 1}
	want := 6.0/7.0 - 0.5
	if q := Modularity(g, assign, 1); math.Abs(q-want) > 1e-12 {
		t.Fatalf("Q = %g, want %g", q, want)
	}
	// One community: Q = 1 - 1 = 0.
	if q := Modularity(g, []int32{0, 0, 0, 0, 0, 0}, 1); math.Abs(q) > 1e-12 {
		t.Fatalf("single-community Q = %g, want 0", q)
	}
}

func TestModularityWorkerInvariance(t *testing.T) {
	g := generate.RMAT(500, 2500, generate.DefaultRMAT(), 3)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(v % 17)
	}
	q1 := Modularity(g, assign, 1)
	for _, w := range []int{2, 4, 8} {
		if q := Modularity(g, assign, w); math.Abs(q-q1) > 1e-9 {
			t.Fatalf("workers=%d: Q drifted %g vs %g", w, q, q1)
		}
	}
}

func TestQuickModularityBounds(t *testing.T) {
	// Q is always in [-1/2, 1) for any partition.
	check := func(raw []uint16, k uint8) bool {
		g := generate.ErdosRenyi(40, 80, int64(len(raw)))
		kk := int32(k%8) + 1
		assign := make([]int32, 40)
		for i := range assign {
			if i < len(raw) {
				assign[i] = int32(raw[i]) % kk
			}
		}
		q := Modularity(g, assign, 1)
		return q >= -0.5-1e-9 && q < 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityStatsMatchModularity(t *testing.T) {
	g := generate.RMAT(200, 800, generate.DefaultRMAT(), 8)
	assign := make([]int32, g.NumVertices())
	members := make([][]int32, 5)
	for v := range assign {
		assign[v] = int32(v % 5)
		members[v%5] = append(members[v%5], int32(v))
	}
	// The divisive loop's totals Q = I/m − S/(4m²) must agree with the
	// direct modularity sweep.
	var in int64
	var sq uint64
	for c, mem := range members {
		intra, degsum := communityStats(g, assign, int32(c), mem)
		in += intra
		sq += uint64(degsum) * uint64(degsum)
	}
	q := totalsQ(in, sq, g.NumEdges())
	if math.Abs(q-Modularity(g, assign, 1)) > 1e-12 {
		t.Fatalf("stats Q %g != modularity %g", q, Modularity(g, assign, 1))
	}
}

func TestSingletons(t *testing.T) {
	g := twoTriangles(t)
	c := Singletons(g)
	if c.Count != 6 || len(c.Assign) != 6 {
		t.Fatalf("singletons: %v", c)
	}
	if c.Q >= 0 {
		t.Fatalf("singleton Q = %g, want negative", c.Q)
	}
}

func TestGirvanNewmanTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	best, dend := GirvanNewman(g, GNOptions{Workers: 2})
	if best.Count != 2 {
		t.Fatalf("GN found %d communities, want 2", best.Count)
	}
	want := 6.0/7.0 - 0.5
	if math.Abs(best.Q-want) > 1e-9 {
		t.Fatalf("GN Q = %g, want %g", best.Q, want)
	}
	if best.Assign[0] != best.Assign[1] || best.Assign[0] == best.Assign[3] {
		t.Fatalf("GN split wrong: %v", best.Assign)
	}
	if dend.Len() != g.NumEdges() {
		t.Fatalf("dendrogram has %d events, want %d", dend.Len(), g.NumEdges())
	}
}

func TestGirvanNewmanKarateQuality(t *testing.T) {
	g := datasets.Karate()
	best, _ := GirvanNewman(g, GNOptions{})
	// The paper reports Q = 0.401 for GN on karate.
	if math.Abs(best.Q-0.401) > 0.01 {
		t.Fatalf("GN karate Q = %.4f, want ~0.401", best.Q)
	}
}

func TestGirvanNewmanMaxRemovals(t *testing.T) {
	g := datasets.Karate()
	if _, dend := GirvanNewman(g, GNOptions{MaxRemovals: 5}); dend.Len() != 5 {
		t.Fatalf("dendrogram has %d events, want 5", dend.Len())
	}
}

func TestGNBestQMatchesRecomputedModularity(t *testing.T) {
	g := datasets.Karate()
	best, _ := GirvanNewman(g, GNOptions{})
	if q := Modularity(g, best.Assign, 1); math.Abs(q-best.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", best.Q, q)
	}
}

func TestPBDTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	best, _ := PBD(g, PBDOptions{Seed: 1})
	want := 6.0/7.0 - 0.5
	if best.Count != 2 || math.Abs(best.Q-want) > 1e-9 {
		t.Fatalf("pBD: count=%d Q=%g, want 2 / %g", best.Count, best.Q, want)
	}
	// Removing a self-loop never splits a community, even when it is
	// its vertex's only edge.
	loop := graph.MustBuild(7, append(g.EdgeEndpoints(), graph.Edge{U: 6, V: 6}), graph.BuildOptions{AllowSelfLoops: true})
	best, dend := PBD(loop, PBDOptions{Seed: 1})
	if best.Count != 3 || dend.Len() != loop.NumEdges() {
		t.Fatalf("pBD with a self-loop: count=%d after %d removals, want 3 after %d", best.Count, dend.Len(), loop.NumEdges())
	}
	if q := Modularity(loop, best.Assign, 1); math.Abs(q-best.Q) > 1e-12 {
		t.Fatalf("pBD with a self-loop: reported Q %g != recomputed %g", best.Q, q)
	}
}

func TestPBDKarateQuality(t *testing.T) {
	g := datasets.Karate()
	best, _ := PBD(g, PBDOptions{Seed: 7})
	// Paper reports 0.397 for pBD on karate; allow sampling slack.
	if best.Q < 0.35 {
		t.Fatalf("pBD karate Q = %.4f, want >= 0.35", best.Q)
	}
	if q := Modularity(g, best.Assign, 1); math.Abs(q-best.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", best.Q, q)
	}
}

func TestPBDBridgeHeuristicAndPatience(t *testing.T) {
	g, _ := generate.PlantedPartition(4, 20, 0.4, 0.01, 5)
	a, _ := PBD(g, PBDOptions{Seed: 1, UseBridgeHeuristic: true, Patience: 50})
	b, _ := PBD(g, PBDOptions{Seed: 1, UseBridgeHeuristic: false, Patience: 50})
	if a.Q < 0.3 || b.Q < 0.3 {
		t.Fatalf("pBD planted-partition Q too low: %.3f / %.3f", a.Q, b.Q)
	}
}

func TestPMATwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	best, dend := PMA(g, PMAOptions{StopWhenNegative: true})
	want := 6.0/7.0 - 0.5
	if best.Count != 2 || math.Abs(best.Q-want) > 1e-9 {
		t.Fatalf("pMA: count=%d Q=%g, want 2 / %g", best.Count, best.Q, want)
	}
	if dend.Len() == 0 {
		t.Fatal("pMA recorded no joins")
	}
	// Each event must be a join.
	for _, ev := range dend.Events {
		if !ev.Join {
			t.Fatal("pMA produced a split event")
		}
	}
}

func TestPMAKarateQuality(t *testing.T) {
	g := datasets.Karate()
	best, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	// Paper reports 0.381; CNM on karate is known to achieve ~0.3807.
	if math.Abs(best.Q-0.3807) > 0.02 {
		t.Fatalf("pMA karate Q = %.4f, want ~0.38", best.Q)
	}
	if q := Modularity(g, best.Assign, 1); math.Abs(q-best.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", best.Q, q)
	}
}

func TestPMAFullDendrogramReachesOneCommunity(t *testing.T) {
	g := datasets.Karate()
	_, dend := PMA(g, PMAOptions{StopWhenNegative: false})
	last := dend.Events[len(dend.Events)-1]
	if last.Clusters != 1 {
		t.Fatalf("full pMA ended with %d clusters, want 1", last.Clusters)
	}
}

func TestPMAStopWhenNegativeLossless(t *testing.T) {
	// Stopping at all-negative ΔQ must find the same best Q as the
	// complete dendrogram.
	g := generate.RMAT(200, 800, generate.DefaultRMAT(), 6)
	a, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	b, _ := PMA(g, PMAOptions{StopWhenNegative: false})
	if math.Abs(a.Q-b.Q) > 1e-9 {
		t.Fatalf("early stop lost quality: %g vs %g", a.Q, b.Q)
	}
}

func TestPLATwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	best := PLA(g, PLAOptions{Seed: 3})
	want := 6.0/7.0 - 0.5
	if best.Count != 2 || math.Abs(best.Q-want) > 1e-9 {
		t.Fatalf("pLA: count=%d Q=%g, want 2 / %g", best.Count, best.Q, want)
	}
}

func TestPLAKarateQuality(t *testing.T) {
	g := datasets.Karate()
	best := PLA(g, PLAOptions{Seed: 5})
	// Paper reports 0.397; accept a band for the randomized heuristic.
	if best.Q < 0.30 {
		t.Fatalf("pLA karate Q = %.4f, want >= 0.30", best.Q)
	}
	if q := Modularity(g, best.Assign, 1); math.Abs(q-best.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", best.Q, q)
	}
}

func TestPLAMetricVariants(t *testing.T) {
	g := datasets.Karate()
	d := PLA(g, PLAOptions{Seed: 5, Metric: MetricDegree})
	c := PLA(g, PLAOptions{Seed: 5, Metric: MetricClusteringCoeff})
	if d.Q <= 0 || c.Q <= 0 {
		t.Fatalf("metric variants failed: %g / %g", d.Q, c.Q)
	}
}

func TestPlantedPartitionRecovery(t *testing.T) {
	// All three algorithms must recover strong planted structure.
	g, truth := generate.PlantedPartition(4, 30, 0.5, 0.005, 11)
	truthQ := Modularity(g, truth, 1)
	pma, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	pla := PLA(g, PLAOptions{Seed: 2})
	pbd, _ := PBD(g, PBDOptions{Seed: 2, Patience: 100})
	for name, got := range map[string]float64{"pMA": pma.Q, "pLA": pla.Q, "pBD": pbd.Q} {
		if got < truthQ*0.9 {
			t.Fatalf("%s Q = %.3f, want >= 90%% of truth Q %.3f", name, got, truthQ)
		}
	}
}

func TestRefineNeverDecreasesQ(t *testing.T) {
	g := datasets.Karate()
	start, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	ref := Refine(g, start, 16, 1)
	if ref.Q < start.Q-1e-12 {
		t.Fatalf("Refine decreased Q: %g -> %g", start.Q, ref.Q)
	}
	if q := Modularity(g, ref.Assign, 1); math.Abs(q-ref.Q) > 1e-9 {
		t.Fatalf("refined Q inconsistent: %g vs %g", ref.Q, q)
	}
}

func TestAnnealKarateNearBestKnown(t *testing.T) {
	g := datasets.Karate()
	best := Anneal(g, 20000, 3)
	// Best known Q on karate is 0.4198 (0.431 under the paper's table);
	// anneal should land at >= 0.40.
	if best.Q < 0.40 {
		t.Fatalf("anneal karate Q = %.4f, want >= 0.40", best.Q)
	}
}

func TestDendrogramBestSnapshot(t *testing.T) {
	assign := []int32{0, 0, 1, 1}
	d := NewDendrogram(assign, 2, 0.1)
	assign[0] = 1 // mutate after snapshot; dendrogram must keep a copy
	d.Record(DendrogramEvent{Step: 0, Q: 0.05}, assign, 2)
	best := d.Best()
	if best.Q != 0.1 {
		t.Fatalf("BestQ = %g", best.Q)
	}
	if best.Assign[0] == best.Assign[2] {
		t.Fatal("snapshot should reflect the original assignment")
	}
}

func TestClusteringAccessors(t *testing.T) {
	c := Clustering{Assign: []int32{0, 1, 0, 1, 1}, Count: 2, Q: 0.5}
	sizes := c.Sizes()
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	mem := c.Members()
	if len(mem[0]) != 2 || len(mem[1]) != 3 {
		t.Fatalf("members = %v", mem)
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestBucketPQ(t *testing.T) {
	pq := NewBucketPQ()
	if _, _, ok := pq.Max(); ok {
		t.Fatal("empty Max should fail")
	}
	pq.Set(1, 0.5)
	pq.Set(2, 0.9)
	pq.Set(3, -0.3)
	if id, v, ok := pq.Max(); !ok || id != 2 || v != 0.9 {
		t.Fatalf("Max = (%d, %g)", id, v)
	}
	pq.Set(2, 0.1) // downgrade
	if id, _, _ := pq.Max(); id != 1 {
		t.Fatalf("Max after downgrade = %d, want 1", id)
	}
	if !pq.Delete(1) || pq.Delete(1) {
		t.Fatal("delete semantics")
	}
	if id, _, _ := pq.Max(); id != 2 {
		t.Fatalf("Max after delete = %d, want 2", id)
	}
	if len(pq.loc) != 2 {
		t.Fatalf("Len = %d", len(pq.loc))
	}
}

func TestQuickBucketPQMatchesOracle(t *testing.T) {
	check := func(ops []int16) bool {
		pq := NewBucketPQ()
		oracle := map[int32]float64{}
		for _, op := range ops {
			id := int32(op % 16)
			if id < 0 {
				id = -id
			}
			v := float64(op%97) / 97.0
			if op%5 == 0 {
				ok := pq.Delete(id)
				_, had := oracle[id]
				if ok != had {
					return false
				}
				delete(oracle, id)
			} else {
				pq.Set(id, v)
				oracle[id] = v
			}
		}
		if len(pq.loc) != len(oracle) {
			return false
		}
		if len(oracle) == 0 {
			_, _, ok := pq.Max()
			return !ok
		}
		bid, bv := int32(-1), math.Inf(-1)
		for id, v := range oracle {
			if v > bv || (v == bv && id < bid) {
				bid, bv = id, v
			}
		}
		id, v, ok := pq.Max()
		return ok && id == bid && v == bv
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGirvanNewmanDisconnectedInput(t *testing.T) {
	// Two separate triangles (no bridge): initial partition is already
	// the two components; GN must handle multi-component input.
	g := buildGraph(t, 6, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
	})
	best, _ := GirvanNewman(g, GNOptions{})
	// Two triangles with m=6: Q = 2*(3/6 - (6/12)^2) = 0.5.
	if best.Count != 2 || math.Abs(best.Q-0.5) > 1e-9 {
		t.Fatalf("disconnected GN: count=%d Q=%g", best.Count, best.Q)
	}
}

func TestPBDDeterministicForFixedSeed(t *testing.T) {
	g := datasets.Karate()
	a, _ := PBD(g, PBDOptions{Seed: 11})
	b, _ := PBD(g, PBDOptions{Seed: 11})
	if a.Q != b.Q || a.Count != b.Count {
		t.Fatalf("pBD not deterministic: %v vs %v", a, b)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignments differ")
		}
	}
}

// A NaN SampleFraction means the default, as 0 does. The component is
// above SwitchThreshold, so the refresh samples sources.
func TestPBDNaNSampleFractionIsDefault(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 6)
	opt := PBDOptions{Seed: 11, SwitchThreshold: 64, MinSamples: 4, Patience: 20}
	a, _ := PBD(g, opt)
	opt.SampleFraction = math.NaN()
	b, _ := PBD(g, opt)
	if !slices.Equal(a.Assign, b.Assign) {
		t.Fatal("SampleFraction NaN: clustering differs from the default's")
	}
}

func TestPMAEmptyAndEdgelessGraphs(t *testing.T) {
	g, _ := graph.Build(5, nil, graph.BuildOptions{})
	c, _ := PMA(g, PMAOptions{})
	if c.Count != 5 {
		t.Fatalf("edgeless pMA count = %d", c.Count)
	}
	g0, _ := graph.Build(0, nil, graph.BuildOptions{})
	c0, _ := PMA(g0, PMAOptions{})
	if c0.Count != 0 {
		t.Fatalf("empty pMA count = %d", c0.Count)
	}
}
