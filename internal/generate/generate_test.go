package generate

import (
	"testing"

	"snap/internal/graph"
)

func TestRMATSizesAndDeterminism(t *testing.T) {
	g1 := RMAT(1000, 4000, DefaultRMAT(), 7)
	g2 := RMAT(1000, 4000, DefaultRMAT(), 7)
	if g1.NumVertices() != 1000 {
		t.Fatalf("n = %d", g1.NumVertices())
	}
	// Duplicates/self-loops are dropped, so m is near but <= requested.
	if g1.NumEdges() < 3000 || g1.NumEdges() > 4000 {
		t.Fatalf("m = %d, want (3000, 4000]", g1.NumEdges())
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("RMAT not deterministic for equal seeds")
	}
	if err := graph.Validate(g1); err != nil {
		t.Fatal(err)
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(4096, 32768, DefaultRMAT(), 11)
	// A skewed generator must produce a hub far above the mean degree.
	mean := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", g.MaxDegree(), mean)
	}
}

func TestErdosRenyiExactEdgeCount(t *testing.T) {
	g := ErdosRenyi(500, 2000, 3)
	if g.NumEdges() != 2000 {
		t.Fatalf("m = %d, want 2000", g.NumEdges())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiCapsAtCompleteGraph(t *testing.T) {
	g := ErdosRenyi(5, 100, 3)
	if g.NumEdges() != 10 {
		t.Fatalf("m = %d, want C(5,2)=10", g.NumEdges())
	}
}

func TestRoadMeshStructure(t *testing.T) {
	g := RoadMesh(10, 20, 0, 1)
	if g.NumVertices() != 200 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Grid edges: r*(c-1) + (r-1)*c = 10*19 + 9*20 = 370.
	if g.NumEdges() != 370 {
		t.Fatalf("m = %d, want 370", g.NumEdges())
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("grid degree > 4: %d", g.MaxDegree())
	}
}

func TestRoadMeshExtraEdges(t *testing.T) {
	g0 := RoadMesh(20, 20, 0, 5)
	g1 := RoadMesh(20, 20, 0.3, 5)
	if g1.NumEdges() <= g0.NumEdges() {
		t.Fatal("extra shortcuts did not add edges")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(100, 4, 0.0, 2)
	// Without rewiring every vertex has exactly k neighbors.
	if g.NumEdges() != 200 {
		t.Fatalf("m = %d, want 200", g.NumEdges())
	}
	for v := int32(0); v < 100; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	gr := WattsStrogatz(100, 4, 0.5, 2)
	if err := graph.Validate(gr); err != nil {
		t.Fatal(err)
	}
}

func TestPlantedPartitionTruth(t *testing.T) {
	g, truth := PlantedPartition(4, 25, 0.5, 0.01, 9)
	if g.NumVertices() != 100 || len(truth) != 100 {
		t.Fatal("sizes wrong")
	}
	for v, c := range truth {
		if int32(v/25) != c {
			t.Fatalf("truth[%d] = %d", v, c)
		}
	}
	// Intra edges must dominate for these parameters.
	intra, inter := 0, 0
	for _, e := range g.EdgeEndpoints() {
		if truth[e.U] == truth[e.V] {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter {
		t.Fatalf("intra=%d inter=%d: community structure missing", intra, inter)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(2000, 3, 4)
	if g.NumVertices() != 2000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	mean := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 5*mean {
		t.Fatalf("no hub: max %d vs mean %.1f", g.MaxDegree(), mean)
	}
}

func TestTreeIsAcyclicConnected(t *testing.T) {
	g := Tree(100, 6)
	if g.NumEdges() != 99 {
		t.Fatalf("m = %d, want 99", g.NumEdges())
	}
}

func TestRingAndComplete(t *testing.T) {
	r := Ring(10)
	if r.NumEdges() != 10 || r.MaxDegree() != 2 {
		t.Fatalf("ring wrong: %v", r)
	}
	k := Complete(6)
	if k.NumEdges() != 15 {
		t.Fatalf("K6 edges = %d", k.NumEdges())
	}
}

func TestRandomWeights(t *testing.T) {
	g := Ring(10)
	wg := RandomWeights(g, 5, 1)
	if !wg.Weighted() {
		t.Fatal("not weighted")
	}
	for _, e := range wg.EdgeEndpoints() {
		if e.W < 1 || e.W > 5 {
			t.Fatalf("weight out of range: %g", e.W)
		}
	}
}

func TestRewireDegreePreserving(t *testing.T) {
	g := PreferentialAttachment(300, 3, 7)
	r := RewireDegreePreserving(g, 2000, 8)
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("rewire changed sizes: %v vs %v", r, g)
	}
	// The degree sequence must be exactly preserved, pointwise.
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) != r.Degree(v) {
			t.Fatalf("degree changed at %d: %d -> %d", v, g.Degree(v), r.Degree(v))
		}
	}
	// And the structure should actually change.
	diff := 0
	for _, e := range g.EdgeEndpoints() {
		if !r.HasEdge(e.U, e.V) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("rewiring changed nothing")
	}
}

func TestRewireDestroysCommunityStructure(t *testing.T) {
	// The null model keeps degrees but should erase planted modularity.
	g, truth := PlantedPartition(4, 30, 0.5, 0.01, 9)
	r := RewireDegreePreserving(g, 20000, 10)
	// Modularity of the old truth labels on the rewired graph ~ 0.
	var qOrig, qRewired float64
	qOrig = modularityOf(g, truth)
	qRewired = modularityOf(r, truth)
	if qRewired > qOrig/2 {
		t.Fatalf("rewiring kept structure: %.3f -> %.3f", qOrig, qRewired)
	}
}

// modularityOf avoids importing community (which imports generate).
func modularityOf(g *graph.Graph, assign []int32) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	maxID := int32(0)
	for _, c := range assign {
		if c > maxID {
			maxID = c
		}
	}
	intra := make([]float64, maxID+1)
	deg := make([]float64, maxID+1)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		deg[assign[v]] += float64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if u > v && assign[u] == assign[v] {
				intra[assign[v]]++
			}
		}
	}
	var q float64
	for c := range intra {
		frac := deg[c] / (2 * m)
		q += intra[c]/m - frac*frac
	}
	return q
}
