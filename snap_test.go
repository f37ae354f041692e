package snap

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"snap/internal/bfs"
)

// The facade tests exercise the public API end to end the way a
// downstream user would.

func TestFacadeBuildAndKernels(t *testing.T) {
	g, err := Build(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := BFS(g, 0)
	if r.Dist[5] != 3 {
		t.Fatalf("BFS dist[5] = %d, want 3", r.Dist[5])
	}
	cc := ConnectedComponents(g)
	if cc.Count != 1 {
		t.Fatalf("components = %d", cc.Count)
	}
	bi := Biconnected(g)
	if len(bi.Bridges()) != 1 {
		t.Fatalf("bridges = %v", bi.Bridges())
	}
	mst := MST(g)
	if len(mst.EdgeIDs) != 5 {
		t.Fatalf("MST edges = %d, want n-1 = 5", len(mst.EdgeIDs))
	}
	sp := DeltaStepping(g, 0, DeltaSteppingOptions{})
	dj := Dijkstra(g, 0)
	for v := range sp.Dist {
		if sp.Dist[v] != dj.Dist[v] {
			t.Fatalf("delta-stepping differs from dijkstra at %d", v)
		}
	}
}

func TestFacadeCentralityAndMetrics(t *testing.T) {
	g := RMAT(512, 2048, DefaultRMAT(), 1)
	bc := Betweenness(g, BetweennessOptions{ComputeVertex: true})
	if len(bc.Vertex) != 512 {
		t.Fatal("vertex scores missing")
	}
	ab := ApproxBetweenness(g, ApproxOptions{Seed: 1})
	if ab.Sources <= 0 {
		t.Fatal("approx used no sources")
	}
	if len(DegreeCentrality(g)) != 512 {
		t.Fatal("degree centrality size")
	}
	if len(Closeness(g)) != 512 {
		t.Fatal("closeness size")
	}
	top := TopKVertices(bc.Vertex, 5)
	if len(top) != 5 {
		t.Fatal("top-k size")
	}
	if c := ClusteringCoefficient(g); c < 0 || c > 1 {
		t.Fatalf("clustering coefficient %g out of range", c)
	}
	if a := Assortativity(g); a < -1 || a > 1 {
		t.Fatalf("assortativity %g out of range", a)
	}
	if avg, _ := AvgPathLength(g); avg <= 0 {
		t.Fatalf("avg path length %g", avg)
	}
	st := Degrees(g)
	if st.Max <= 0 {
		t.Fatal("degree stats empty")
	}
	_ = LocalClustering(g)
	_ = RichClub(g)
	_ = AvgNeighborDegree(g)
}

func TestFacadeCommunity(t *testing.T) {
	g, truth := PlantedPartition(4, 25, 0.5, 0.01, 3)
	truthQ := Modularity(g, truth)
	gn, _ := GirvanNewman(g, GNOptions{MaxRemovals: 200})
	pbd, _ := PBD(g, PBDOptions{Seed: 1, Patience: 60})
	pma, dend := PMA(g, PMAOptions{StopWhenNegative: true})
	pla := PLA(g, PLAOptions{Seed: 1})
	if dend.Len() == 0 {
		t.Fatal("pMA dendrogram empty")
	}
	for name, q := range map[string]float64{
		"GN": gn.Q, "PBD": pbd.Q, "PMA": pma.Q, "PLA": pla.Q,
	} {
		if q < truthQ*0.85 {
			t.Fatalf("%s Q = %.3f below 85%% of truth %.3f", name, q, truthQ)
		}
	}
	ref := RefineClustering(g, pma, 8, 1)
	if ref.Q < pma.Q-1e-12 {
		t.Fatal("refine decreased Q")
	}
}

func TestFacadePartitioning(t *testing.T) {
	mesh := RoadMesh(30, 30, 0, 2)
	sw := RMAT(900, mesh.NumEdges(), DefaultRMAT(), 2)
	var st PartitionStats
	km, err := Partition(mesh, PartitionOptions{K: 4, Seed: 1, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels == 0 {
		t.Fatal("PartitionOptions.Stats recorded no levels")
	}
	ks, err := Partition(sw, PartitionOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ks.EdgeCut <= km.EdgeCut {
		t.Fatalf("small-world cut %d should exceed mesh cut %d", ks.EdgeCut, km.EdgeCut)
	}
	if km.EdgeCut != EdgeCut(mesh, km.Part) {
		t.Fatal("EdgeCut mismatch")
	}
	rec, err := MultilevelRecursive(mesh, 4, MultilevelOptions{Seed: 1})
	if err != nil || rec.Balance > 1.2 {
		t.Fatalf("recursive: %v balance %.2f", err, rec.Balance)
	}
	if _, err := SpectralRQI(mesh, 2, SpectralOptions{Seed: 1}); err != nil {
		t.Fatalf("spectral rqi on mesh: %v", err)
	}
	if _, err := SpectralLanczos(mesh, 2, SpectralOptions{Seed: 1}); err != nil {
		t.Fatalf("spectral lanczos on mesh: %v", err)
	}
}

func TestFacadeIO(t *testing.T) {
	g := WattsStrogatz(64, 4, 0.1, 1)
	var txt bytes.Buffer
	if err := WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&txt, false)
	if err != nil || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("text round trip: %v", err)
	}
	if Undirected(g2) != g2 {
		t.Fatal("Undirected of undirected should be identity")
	}
	var bin bytes.Buffer
	if err := EncodeContainer(&bin, g, ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	g3, err := DecodeContainer(bin.Bytes(), MapLoadOptions{})
	if err != nil || g3.NumEdges() != g.NumEdges() {
		t.Fatalf("binary round trip: %v", err)
	}
}

func TestFacadeModularityMatchesManual(t *testing.T) {
	g, _ := Build(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	}, BuildOptions{})
	q := Modularity(g, []int32{0, 0, 0, 1, 1, 1})
	if math.Abs(q-(6.0/7-0.5)) > 1e-12 {
		t.Fatalf("Q = %g", q)
	}
}

func TestFacadeSpectralCommunities(t *testing.T) {
	g, truth := PlantedPartition(3, 30, 0.5, 0.01, 9)
	c := SpectralCommunities(g, CommunitySpectralOptions{Seed: 1, Refine: true})
	if c.Q < Modularity(g, truth)*0.9 {
		t.Fatalf("spectral communities Q = %.3f too low", c.Q)
	}
}

func TestFacadeIncrementalConnectivity(t *testing.T) {
	inc := NewIncrementalConnectivity(4)
	inc.AddEdge(0, 1)
	inc.AddEdge(2, 3)
	if inc.Components() != 2 || inc.Connected(0, 2) {
		t.Fatal("incremental connectivity wrong")
	}
	inc.AddEdge(1, 2)
	if !inc.Connected(0, 3) {
		t.Fatal("merge not reflected")
	}
}

func TestFacadeNewKernels(t *testing.T) {
	g := RMAT(400, 1600, DefaultRMAT(), 6)
	pr := PageRank(g, PageRankOptions{})
	var s float64
	for _, v := range pr {
		s += v
	}
	if math.Abs(s-1) > 1e-6 {
		t.Fatalf("PageRank sum %g", s)
	}
	if len(EigenvectorCentrality(g)) != 400 {
		t.Fatal("eigenvector size")
	}
	if ok, d := STConnectivity(g, 0, 0); !ok || d != 0 {
		t.Fatal("stcon self")
	}
	core := KCore(g)
	if len(core) != 400 || Degeneracy(g) <= 0 {
		t.Fatal("kcore")
	}
	r := BFSWithOptions(g, 0, BFSOptions{})
	want := bfs.Serial(g, 0, nil)
	for v := range want.Dist {
		if r.Dist[v] != want.Dist[v] {
			t.Fatal("direction-optimizing BFS differs")
		}
	}
	rg, _, err := Relabel(g, RCMOrder(g))
	if err != nil || Bandwidth(rg) <= 0 || rg.NumEdges() != g.NumEdges() {
		t.Fatalf("rcm/relabel: %v", err)
	}
	scc := StronglyConnectedComponents(g)
	if scc.Count < 1 {
		t.Fatal("scc")
	}
	_ = Condensation(g, scc)
}

func TestFacadeApproxAnalytics(t *testing.T) {
	g := RMAT(600, 2400, DefaultRMAT(), 8)
	anf := ApproxNeighborhood(g, ANFOptions{Seed: 1})
	if len(anf.NF) == 0 || anf.AvgPathLength <= 0 || len(anf.Reach) != 600 {
		t.Fatalf("ANF result: %+v", anf)
	}
	if anf.EffectiveDiameter <= 0 || anf.DiameterEstimate <= 0 {
		t.Fatalf("ANF distances: effective %g, diameter %d", anf.EffectiveDiameter, anf.DiameterEstimate)
	}
	sc := SampledCloseness(g, SampledClosenessOptions{Samples: 32, Seed: 1})
	if len(sc.Scores) != 600 || len(sc.Pivots) != 32 || sc.Epsilon <= 0 {
		t.Fatalf("sampled closeness: %d scores, %d pivots", len(sc.Scores), len(sc.Pivots))
	}
	oracle, err := NewDistanceOracle(g, DistanceOracleOptions{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	exact := BFS(g, 3)
	for v := int32(0); v < 600; v++ {
		d := exact.Dist[v]
		lo, hi := oracle.Estimate(3, v)
		if d < 0 {
			if hi >= 0 {
				t.Fatalf("disconnected pair got bracket [%d,%d]", lo, hi)
			}
			continue
		}
		if hi < 0 {
			continue
		}
		if lo > d || d > hi {
			t.Fatalf("oracle bracket [%d,%d] misses exact %d for (3,%d)", lo, hi, d, v)
		}
	}
}

func TestFacadeLouvainAndQuality(t *testing.T) {
	g, truth := PlantedPartition(4, 30, 0.5, 0.01, 4)
	lv := Louvain(g, LouvainOptions{Seed: 1})
	if lv.Q < Modularity(g, truth)*0.9 {
		t.Fatalf("louvain Q %.3f too low", lv.Q)
	}
	if NMI(truth, lv.Assign) < 0.85 {
		t.Fatal("louvain NMI too low")
	}
	if Coverage(g, lv.Assign) <= 0.5 {
		t.Fatal("coverage too low")
	}
	cond := Conductance(g, lv)
	if len(cond) != lv.Count {
		t.Fatal("conductance size")
	}
	cg := CommunityGraph(g, lv)
	if cg.NumVertices() != lv.Count {
		t.Fatal("community graph size")
	}
}

func TestFacadeFormats(t *testing.T) {
	g := WattsStrogatz(40, 4, 0.2, 2)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("metis: %v", err)
	}
	buf.Reset()
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	sub, _, err := InducedSubgraph(g, []int32{0, 1, 2, 3})
	if err != nil || sub.NumVertices() != 4 {
		t.Fatalf("induced: %v", err)
	}
	at := NewAttributes(g)
	if err := at.SetVertexString("label", 0, "x"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLatestExtensions(t *testing.T) {
	g, truth := PlantedPartition(3, 40, 0.5, 0.005, 12)
	lpa := LabelPropagation(g, 2)
	if NMI(truth, lpa.Assign) < 0.8 {
		t.Fatalf("LPA NMI too low")
	}
	ac := SampledCloseness(g, SampledClosenessOptions{Samples: 24, Seed: 3})
	if len(ac.Scores) != g.NumVertices() {
		t.Fatal("approx closeness size")
	}
	rw := RewireDegreePreserving(g, 5000, 4)
	if rw.NumEdges() != g.NumEdges() {
		t.Fatal("rewire changed m")
	}
	if d := Diameter(g); d < 2 {
		t.Fatalf("diameter = %d", d)
	}
	ba := PreferentialAttachment(3000, 3, 5)
	alpha, cnt := PowerLawAlpha(ba, 3)
	if cnt == 0 || alpha < 1.5 || alpha > 5 {
		t.Fatalf("alpha = %g (%d samples)", alpha, cnt)
	}
}

func TestFacadeContainer(t *testing.T) {
	g := WattsStrogatz(128, 4, 0.1, 7)
	dir := t.TempDir()
	for _, compress := range []bool{false, true} {
		p := dir + "/g.snp2"
		if err := WriteContainer(p, g, ContainerOptions{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		m, err := MapBinary(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumVertices() != g.NumVertices() || m.NumArcs() != g.NumArcs() {
			t.Fatalf("mapped shape %v, want %v", m, g)
		}
		hb, mb := BFS(g, 0), BFS(m, 0)
		for v := range hb.Dist {
			if hb.Dist[v] != mb.Dist[v] {
				t.Fatalf("mapped BFS differs at %d (compress=%v)", v, compress)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeContainer(&buf, g, ContainerOptions{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		d, err := DecodeContainer(buf.Bytes(), MapLoadOptions{Validate: true})
		if err != nil || d.NumArcs() != g.NumArcs() {
			t.Fatalf("decode (compress=%v): %v", compress, err)
		}
		v, err := MapBinaryOptions(p, MapLoadOptions{ForceCopy: true, Validate: true})
		if err != nil || v.NumArcs() != g.NumArcs() {
			t.Fatalf("forced-copy load (compress=%v): %v", compress, err)
		}
	}
}

func TestFacadeStream(t *testing.T) {
	g := WattsStrogatz(200, 4, 0.1, 3)
	s := NewStream(g, StreamOptions{})
	defer s.Close()
	if err := s.Add(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Deleted != 1 {
		t.Fatalf("stats = %+v, want 1 add / 1 delete", stats)
	}
	e := s.Pin()
	defer e.Close()
	if !e.Graph().HasEdge(0, 100) || e.Graph().HasEdge(0, 1) {
		t.Fatal("epoch graph missing the committed delta")
	}

	// Standalone delta merge agrees with the stream commit.
	merged, err := MergeDelta(g, []Edge{{U: 0, V: 100}}, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumEdges() != e.Graph().NumEdges() {
		t.Fatalf("MergeDelta edges %d, epoch edges %d", merged.NumEdges(), e.Graph().NumEdges())
	}

	// The warm-start PageRank entry point agrees with the cold path.
	opt := PageRankOptions{}
	full := PageRank(e.Graph(), opt)
	warm := PageRankFrom(e.Graph(), full, opt)
	for v := range full {
		if d := full[v] - warm[v]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("PageRankFrom diverges at %d", v)
		}
	}

	es, err := NewEmptyStream(10, false, false, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if err := es.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := es.Commit(); err != nil {
		t.Fatal(err)
	}
	ee := es.Pin()
	defer ee.Close()
	if got := ConnectedComponents(ee.Graph()).Count; got != 9 {
		t.Fatalf("components after one edge = %d, want 9", got)
	}
}

// BFS's parallel top-down arm reproduces the serial reference's
// distances and parents bit for bit, at any GOMAXPROCS.
// snap.BFS runs direction-optimizing: distances are the queue loop's,
// parents the single-worker direction-optimizing run's (rmat10 takes a
// bottom-up level, where they differ from the queue loop's), and they
// always form a BFS tree.
func TestFacadeBFSMatchesSerial(t *testing.T) {
	for name, g := range map[string]*Graph{
		"rmat10": RMAT(1<<10, 8<<10, DefaultRMAT(), 1),
		"road32": RoadMesh(32, 32, 0.1, 1),
	} {
		for _, src := range []int32{0, 17, 511} {
			got := BFS(g, src)
			if !slices.Equal(got.Dist, bfs.Serial(g, src, nil).Dist) {
				t.Fatalf("%s src %d: BFS distances differ from the serial reference", name, src)
			}
			if !slices.Equal(got.Parent, bfs.DirectionOptimizing(g, src, bfs.Options{Workers: 1}).Parent) {
				t.Fatalf("%s src %d: BFS parents differ from the single-worker run", name, src)
			}
			if got.Parent[src] != src {
				t.Fatalf("%s src %d: source parent %d", name, src, got.Parent[src])
			}
			for v, p := range got.Parent {
				if v == int(src) || got.Dist[v] < 0 {
					continue
				}
				if got.Dist[p] != got.Dist[v]-1 || !g.HasEdge(p, int32(v)) {
					t.Fatalf("%s src %d: parent %d of %d is not a BFS-tree parent", name, src, p, v)
				}
			}
		}
	}
}

// The HyperANF result carries the default effective diameter; this is
// the value the former EffectiveDiameter(g) returned on this graph at
// commit 3643b0f.
func TestFacadeANFEffectiveDiameter(t *testing.T) {
	g := RMAT(600, 2400, DefaultRMAT(), 8)
	if got := ApproxNeighborhood(g, ANFOptions{}).EffectiveDiameter; got != 4.62542684434802 {
		t.Fatalf("effective diameter %v, want 4.62542684434802", got)
	}
}
