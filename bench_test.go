package snap

// Benchmarks mirroring the paper's evaluation: one group per table and
// figure. These run the same code paths as cmd/snap-bench at sizes
// suitable for `go test -bench=.`; the cmd binary regenerates the full
// tables with paper-vs-measured output (see EXPERIMENTS.md).

import (
	"testing"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/datasets"
	"snap/internal/frontier"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/metrics"
	"snap/internal/partition"
)

// --- Table 1: partitioning the three graph families ---

const (
	t1N = 10000
	t1M = 50000
	t1K = 8
)

func table1Road() *graph.Graph {
	return generate.RoadMesh(100, 100, 0.12, 1)
}

func table1Random() *graph.Graph {
	return generate.ErdosRenyi(t1N, t1M, 2)
}

func table1SmallWorld() *graph.Graph {
	return generate.RMAT(t1N, t1M, generate.DefaultRMAT(), 3)
}

func benchPartition(b *testing.B, g *graph.Graph, method string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		switch method {
		case "kway":
			_, err = partition.MultilevelKWay(g, t1K, partition.MultilevelOptions{Seed: int64(i)})
		case "recur":
			_, err = partition.MultilevelRecursive(g, t1K, partition.MultilevelOptions{Seed: int64(i)})
		case "rqi":
			_, err = partition.SpectralRQI(g, t1K, partition.SpectralOptions{Seed: int64(i)})
		case "lanczos":
			_, err = partition.SpectralLanczos(g, t1K, partition.SpectralOptions{Seed: int64(i)})
		}
		if err != nil && err != partition.ErrNoConvergence {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Road_MetisKway(b *testing.B)    { benchPartition(b, table1Road(), "kway") }
func BenchmarkTable1_Road_MetisRecur(b *testing.B)   { benchPartition(b, table1Road(), "recur") }
func BenchmarkTable1_Road_ChacoRQI(b *testing.B)     { benchPartition(b, table1Road(), "rqi") }
func BenchmarkTable1_Road_ChacoLAN(b *testing.B)     { benchPartition(b, table1Road(), "lanczos") }
func BenchmarkTable1_Random_MetisKway(b *testing.B)  { benchPartition(b, table1Random(), "kway") }
func BenchmarkTable1_Random_MetisRecur(b *testing.B) { benchPartition(b, table1Random(), "recur") }
func BenchmarkTable1_SmallWorld_MetisKway(b *testing.B) {
	benchPartition(b, table1SmallWorld(), "kway")
}
func BenchmarkTable1_SmallWorld_ChacoRQI(b *testing.B) {
	benchPartition(b, table1SmallWorld(), "rqi")
}

// --- Table 2: modularity algorithms on the benchmark networks ---

func table2Email() *graph.Graph {
	net, err := datasets.ByLabel("E-mail")
	if err != nil {
		panic(err)
	}
	return net.Build(0.5)
}

func BenchmarkTable2_GN_Karate(b *testing.B) {
	g := datasets.Karate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.GNOptions{})
	}
}

func BenchmarkTable2_GN_Email(b *testing.B) {
	g := table2Email()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.GNOptions{Patience: 300})
	}
}

func BenchmarkTable2_PBD_Email(b *testing.B) {
	g := table2Email()
	for i := 0; i < b.N; i++ {
		community.PBD(g, community.PBDOptions{Seed: int64(i), Patience: 300})
	}
}

func BenchmarkTable2_PMA_Email(b *testing.B) {
	g := table2Email()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PMA(g, community.PMAOptions{StopWhenNegative: true})
	}
}

func BenchmarkTable2_PLA_Email(b *testing.B) {
	g := table2Email()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PLA(g, community.PLAOptions{Seed: int64(i)})
	}
}

func BenchmarkTable2_Spectral_Email(b *testing.B) {
	g := table2Email()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.SpectralCommunities(g, community.SpectralOptions{Seed: int64(i)})
	}
}

// --- Figure 2: scaling workload on RMAT-SF ---

func figure2Graph() *graph.Graph {
	net, err := datasets.ByLabel("RMAT-SF")
	if err != nil {
		panic(err)
	}
	return net.Build(0.01)
}

func BenchmarkFigure2_PBD_RMATSF(b *testing.B) {
	g := figure2Graph()
	for i := 0; i < b.N; i++ {
		community.PBD(g, community.PBDOptions{
			Seed: int64(i), SampleFraction: 0.02, SwitchThreshold: 128,
			RefreshInterval: 64, Patience: 100, MaxRemovals: 500,
		})
	}
}

func BenchmarkFigure2_PMA_RMATSF(b *testing.B) {
	g := figure2Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PMA(g, community.PMAOptions{StopWhenNegative: true})
	}
}

func BenchmarkFigure2_PLA_RMATSF(b *testing.B) {
	g := figure2Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PLA(g, community.PLAOptions{Seed: int64(i)})
	}
}

// --- Figure 3(a): pBD vs one GN removal on PPI ---

func figure3PPI() *graph.Graph {
	net, err := datasets.ByLabel("PPI")
	if err != nil {
		panic(err)
	}
	return net.Build(0.25)
}

func BenchmarkFigure3a_PBD_PPI(b *testing.B) {
	g := figure3PPI()
	for i := 0; i < b.N; i++ {
		community.PBD(g, community.PBDOptions{
			Seed: int64(i), SampleFraction: 0.02, SwitchThreshold: 128,
			RefreshInterval: 64, Patience: 200,
		})
	}
}

func BenchmarkFigure3a_GNRemoval_PPI(b *testing.B) {
	g := figure3PPI()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.GNOptions{MaxRemovals: 1})
	}
}

// --- Figure 3(b): agglomerative algorithms on Citations ---

func figure3Citations() *graph.Graph {
	net, err := datasets.ByLabel("Citations")
	if err != nil {
		panic(err)
	}
	return net.Build(0.1)
}

func BenchmarkFigure3b_PMA_Citations(b *testing.B) {
	g := figure3Citations()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PMA(g, community.PMAOptions{StopWhenNegative: true})
	}
}

func BenchmarkFigure3b_PLA_Citations(b *testing.B) {
	g := figure3Citations()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		community.PLA(g, community.PLAOptions{Seed: int64(i)})
	}
}

// --- Supporting kernels (the SNAP "building blocks") ---

func BenchmarkKernel_ModularityEval(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(v % 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.Modularity(g, assign, 0)
	}
}

func BenchmarkKernel_ApproxBetweennessEdge(b *testing.B) {
	g := generate.RMAT(1<<13, 1<<15, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxBetweenness(g, ApproxOptions{Seed: int64(i), ComputeEdge: true})
	}
}

// --- Workspace group: allocation-regression benchmarks for the
// epoch-stamped traversal workspaces (multi-source BFS hot paths).
// Run with -benchmem; allocs/op is the tracked regression metric.

func workspaceGraph() *graph.Graph {
	return generate.RMAT(1<<12, 1<<14, generate.DefaultRMAT(), 7)
}

func workspaceSources(n, k int) []int32 {
	sources := make([]int32, k)
	for i := range sources {
		sources[i] = int32(i * (n / k))
	}
	return sources
}

func BenchmarkWorkspaceCloseness(b *testing.B) {
	g := workspaceGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrality.Closeness(g, centrality.ClosenessOptions{})
	}
}

func BenchmarkWorkspaceDiameter(b *testing.B) {
	g := workspaceGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Diameter(g)
	}
}

func BenchmarkWorkspaceMultiSource(b *testing.B) {
	g := workspaceGraph()
	sources := workspaceSources(g.NumVertices(), 64)
	totals := make([]int64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.MultiSourceWorkspace(g, sources, -1, 16, func(w, _ int, ws *bfs.Workspace) {
			totals[w] += int64(ws.Reached())
		})
	}
}

// --- Frontier group: direction-optimizing engine vs always-top-down.
// On the small-world RMAT graph the bottom-up middle levels should win;
// on the high-diameter RoadMesh the frontier never gets dense enough to
// switch, so direction-optimizing must stay within noise of top-down.
// Run with -benchmem; numbers are recorded in EXPERIMENTS.md.

func frontierRMAT() *graph.Graph {
	return generate.RMAT(1<<14, 1<<16, generate.DefaultRMAT(), 11)
}

func frontierRoadMesh() *graph.Graph {
	return generate.RoadMesh(128, 128, 0.05, 11)
}

// frontierSource picks the max-degree vertex, guaranteed inside the
// giant component on both families.
func frontierSource(g *graph.Graph) int32 {
	src := int32(0)
	for v := int32(1); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(src) {
			src = v
		}
	}
	return src
}

func benchFrontier(b *testing.B, g *graph.Graph, alpha float64) {
	src := frontierSource(g)
	e := frontier.AcquireEngine(g.NumVertices())
	defer frontier.ReleaseEngine(e)
	opt := frontier.Options{Workers: 1, MaxDepth: -1, Alpha: alpha}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunOptions(g, src, opt)
	}
}

func BenchmarkFrontierTopDown_RMAT(b *testing.B) { benchFrontier(b, frontierRMAT(), 0) }

func BenchmarkFrontierDirOpt_RMAT(b *testing.B) {
	benchFrontier(b, frontierRMAT(), frontier.DefaultAlpha)
}

func BenchmarkFrontierTopDown_RoadMesh(b *testing.B) { benchFrontier(b, frontierRoadMesh(), 0) }

func BenchmarkFrontierDirOpt_RoadMesh(b *testing.B) {
	benchFrontier(b, frontierRoadMesh(), frontier.DefaultAlpha)
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// benchmarkGraphs returns the repo benchmark's two graphs at seed 1,
// rmat 2^17 and road 362²; -short shrinks them to 2^14 / 128².
func benchmarkGraphs() []namedGraph {
	scale, side := 17, 362
	if testing.Short() {
		scale, side = 14, 128
	}
	return []namedGraph{
		{"rmat", generate.RMAT(1<<scale, 8<<scale, generate.DefaultRMAT(), 1)},
		{"road", generate.RoadMesh(side, side, 0.05, 1)},
	}
}

// BenchmarkFacadeTraversal times the facade's distance-only and
// membership-only traversals as the repo benchmark's analyze workloads
// call them: BFS from the max-degree vertex, and ConnectedComponents.
//
//	go test -run '^$' -bench BenchmarkFacadeTraversal -benchmem -cpu 1,2 .
func BenchmarkFacadeTraversal(b *testing.B) {
	for _, tc := range benchmarkGraphs() {
		src := frontierSource(tc.g)
		b.Run(tc.name+"/bfs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BFS(tc.g, src)
			}
		})
		b.Run(tc.name+"/components", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ConnectedComponents(tc.g)
			}
		})
	}
}

// BenchmarkBlockedLayout measures the partition-blocked layout as a
// pure relabel: the same kernels on the original vertex order
// (identity) and on the order MultilevelKWay{K:32} → BlockedPerm →
// Relabel produces (blocked), built untimed. Graphs are the repo
// benchmark's two, rmat 2^17 and road 362²; -short shrinks them to
// 2^14 / 128². BFS starts from the same vertex on both orders.
//
//	go test -run '^$' -bench BenchmarkBlockedLayout -benchmem -cpu 1 .
func BenchmarkBlockedLayout(b *testing.B) {
	prOpt := PageRankOptions{MaxIterations: 30, Tolerance: 1e-15}
	for _, tc := range benchmarkGraphs() {
		res, err := Partition(tc.g, PartitionOptions{K: 32})
		if err != nil {
			b.Fatal(err)
		}
		perm, _, err := BlockedPerm(tc.g, res.Part, 32)
		if err != nil {
			b.Fatal(err)
		}
		blocked, inv, err := Relabel(tc.g, perm)
		if err != nil {
			b.Fatal(err)
		}
		src := frontierSource(tc.g)
		layouts := []struct {
			name string
			g    *graph.Graph
			src  int32
		}{
			{"identity", tc.g, src},
			{"blocked", blocked, inv[src]},
		}
		for _, l := range layouts {
			b.Run(tc.name+"/pagerank/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PageRank(l.g, prOpt)
				}
			})
		}
		for _, l := range layouts {
			b.Run(tc.name+"/bfs/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bfs.Serial(l.g, l.src, nil)
				}
			})
		}
	}
}

// BenchmarkWorkspaceSerialClosenessBaseline is the pre-change closeness
// inner loop — one freshly allocated bfs.Serial per source — kept so
// the allocation win of the workspace path stays visible in-tree.
func BenchmarkWorkspaceSerialClosenessBaseline(b *testing.B) {
	g := workspaceGraph()
	sources := workspaceSources(g.NumVertices(), 64)
	out := make([]float64, g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range sources {
			r := bfs.Serial(g, v, nil)
			var total int64
			for _, d := range r.Dist {
				if d > 0 {
					total += int64(d)
				}
			}
			if total > 0 {
				out[v] = 1 / float64(total)
			}
		}
	}
}
