package partition

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// Golden partitions, recorded at commit 5908eda (the last one with the
// comparison-sort contraction and full-sweep refinement). The engine
// promises the same partition bit for bit for a given (graph, k, seed)
// at every worker count, so any change to coarsening or refinement that
// moves one of these hashes changed the output, not just the speed.

type goldenCase struct {
	name string
	g    func() *graph.Graph
	k    int
	seed int64
	hash uint64 // FNV-1a over Part as little-endian int32s
	cut  int64
	// seedCut is what the seed-era serial partitioner (random-order
	// greedy matching, graph.Build contraction, serial refinement; it
	// lived on verbatim in partition_baseline_test.go until the hashes
	// above pinned the engine) cut on the instance; 0 = not gated.
	seedCut int64
	long    bool // skipped under -short
}

// seedCutTolerance: the engine's cut may exceed the seed-era cut by at
// most 10% on the gated instances. With cut pinned exactly this cannot
// fail by itself; it is the bound to hold when a deliberate change of
// the algorithm re-records the hashes.
const seedCutTolerance = 1.10

// directedRMAT orients an R-MAT edge list (every third edge reversed)
// so out- and in-neighbourhoods differ: the contraction cannot lean on
// a symmetric adjacency and refinement cannot find a mover's readers.
func directedRMAT(n, m int, seed int64) *graph.Graph {
	edges := generate.RMAT(n, m, generate.DefaultRMAT(), seed).EdgeEndpoints()
	for i := range edges {
		if i%3 == 0 {
			edges[i].U, edges[i].V = edges[i].V, edges[i].U
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{Directed: true})
}

var goldenCases = []goldenCase{
	{name: "mesh40x40", g: func() *graph.Graph { return generate.RoadMesh(40, 40, 0, 1) },
		k: 8, seed: 1, hash: 0xfb2239afcfe6d34, cut: 232, seedCut: 232},
	{name: "mesh64x64", g: func() *graph.Graph { return generate.RoadMesh(64, 64, 0, 2) },
		k: 16, seed: 2, hash: 0xa532b542ad994218, cut: 564, seedCut: 617},
	{name: "rmat14", g: func() *graph.Graph { return generate.RMAT(1<<14, 8<<14, generate.DefaultRMAT(), 3) },
		k: 32, seed: 3, hash: 0xe3ef087d94b829ae, cut: 85538, seedCut: 85575},
	{name: "rmat12-directed", g: func() *graph.Graph { return directedRMAT(1<<12, 8<<12, 4) },
		k: 8, seed: 4, hash: 0x17973ab396f733b4, cut: 16490},
	// The benchmark's analyze-rmat graph and call (seed-1 graph, K 32,
	// default partition seed): its cut is the pinned partition.edgecut.
	{name: "rmat17", g: func() *graph.Graph { return generate.RMAT(1<<17, 8<<17, generate.DefaultRMAT(), 1) },
		k: 32, seed: 0, hash: 0x2c12219f3224662c, cut: 748026, long: true},
}

func partHash(part []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// One workspace serves every case at every worker count in turn, so the
// test also proves that nothing a run leaves behind — skip marks, dedupe
// stamps, level buffers sized for another graph — reaches the next one.
func TestKWayGoldenPartitions(t *testing.T) {
	ws := new(Workspace)
	for _, tc := range goldenCases {
		if tc.long && testing.Short() {
			continue
		}
		g := tc.g()
		for _, workers := range []int{1, 2, 4} {
			r, err := ws.KWay(g, tc.k, MultilevelOptions{Seed: tc.seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if h := partHash(r.Part); h != tc.hash || r.EdgeCut != tc.cut {
				t.Errorf("%s workers=%d: hash %#x cut %d, want %#x / %d",
					tc.name, workers, h, r.EdgeCut, tc.hash, tc.cut)
			}
			if limit := int64(float64(tc.seedCut) * seedCutTolerance); tc.seedCut > 0 && r.EdgeCut > limit {
				t.Errorf("%s workers=%d: cut %d exceeds the seed-era cut %d by more than 10%%",
					tc.name, workers, r.EdgeCut, tc.seedCut)
			}
		}
	}
}

// Golden partitions of the recursive bisectors (Table 1's METIS-recur,
// Chaco-RQI and Chaco-LAN columns). The rqi and lanczos rows were
// recorded at commit 9fd2ea9, before the Lanczos loop and its
// tridiagonal helpers moved to internal/eigen; every floating-point
// step of the eigensolvers kept its order, so they hold bit for bit.
// The recur rows were re-recorded when each split became a two-part
// run of the k-way engine (cuts 278 and 7 757 before, on the separate
// bisection grower and refiner).
var recursiveGoldens = []struct {
	name   string
	method string
	g      func() *graph.Graph
	k      int
	seed   int64
	hash   uint64
	cut    int64
}{
	{name: "mesh40x40", method: "recur", g: goldenCases[0].g, k: 8, seed: 1, hash: 0x69d6adedf4f52f31, cut: 215},
	{name: "mesh40x40", method: "rqi", g: goldenCases[0].g, k: 8, seed: 1, hash: 0x8608db0713d2fea5, cut: 172},
	{name: "mesh40x40", method: "lanczos", g: goldenCases[0].g, k: 8, seed: 1, hash: 0xf41a7c1787e8fa75, cut: 180},
	{name: "rmat12", method: "recur", g: rmat12, k: 8, seed: 3, hash: 0x9a47499792abbef6, cut: 7845},
	{name: "rmat12", method: "rqi", g: rmat12, k: 8, seed: 3, hash: 0x236265df303dfa85, cut: 8507},
	{name: "rmat12", method: "lanczos", g: rmat12, k: 8, seed: 3, hash: 0xf9bef3936fe653e5, cut: 10374},
}

func rmat12() *graph.Graph { return generate.RMAT(1<<12, 4<<12, generate.DefaultRMAT(), 3) }

func TestRecursiveGoldenPartitions(t *testing.T) {
	for _, tc := range recursiveGoldens {
		g := tc.g()
		var r Result
		var err error
		switch tc.method {
		case "recur":
			r, err = MultilevelRecursive(g, tc.k, MultilevelOptions{Seed: tc.seed})
		case "rqi":
			r, err = SpectralRQI(g, tc.k, SpectralOptions{Seed: tc.seed})
		case "lanczos":
			r, err = SpectralLanczos(g, tc.k, SpectralOptions{Seed: tc.seed})
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.name, tc.method, err)
		}
		if h := partHash(r.Part); h != tc.hash || r.EdgeCut != tc.cut {
			t.Errorf("%s/%s: hash %#x cut %d, want %#x / %d", tc.name, tc.method, h, r.EdgeCut, tc.hash, tc.cut)
		}
	}
}
