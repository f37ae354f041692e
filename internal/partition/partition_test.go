package partition

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
)

func validPartition(t *testing.T, name string, g *graph.Graph, r Result, k int) {
	t.Helper()
	if len(r.Part) != g.NumVertices() {
		t.Fatalf("%s: part length %d", name, len(r.Part))
	}
	for v, p := range r.Part {
		if p < 0 || int(p) >= k {
			t.Fatalf("%s: vertex %d in invalid part %d", name, v, p)
		}
	}
	if r.EdgeCut != EdgeCut(g, r.Part) {
		t.Fatalf("%s: reported cut %d != recomputed %d", name, r.EdgeCut, EdgeCut(g, r.Part))
	}
	if r.Balance > 1.5 {
		t.Fatalf("%s: balance %.2f too loose", name, r.Balance)
	}
	// All k parts must be nonempty for these test sizes.
	seen := make([]bool, k)
	for _, p := range r.Part {
		seen[p] = true
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("%s: part %d empty", name, p)
		}
	}
}

func TestEdgeCutAndBalance(t *testing.T) {
	g, _ := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}}, graph.BuildOptions{})
	part := []int32{0, 0, 1, 1}
	if c := EdgeCut(g, part); c != 1 {
		t.Fatalf("cut = %d, want 1", c)
	}
	if b := Balance(part, 2); b != 1 {
		t.Fatalf("balance = %g, want 1", b)
	}
	if b := Balance([]int32{0, 0, 0, 1}, 2); b != 1.5 {
		t.Fatalf("balance = %g, want 1.5", b)
	}
}

func TestValidateK(t *testing.T) {
	g := oracle.Ring(8)
	if _, err := MultilevelKWay(g, 1, MultilevelOptions{}); err == nil {
		t.Fatal("k=1 should error")
	}
	if _, err := MultilevelKWay(g, 100, MultilevelOptions{}); err == nil {
		t.Fatal("k>n should error")
	}
}

func TestMultilevelKWayOnMesh(t *testing.T) {
	g := generate.RoadMesh(40, 40, 0, 1)
	r, err := MultilevelKWay(g, 8, MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, "kway", g, r, 8)
	// A 40x40 mesh split 8 ways has cuts around a few hundred at most;
	// random assignment would cut ~87.5% of 3120 edges (~2700).
	if r.EdgeCut > 600 {
		t.Fatalf("mesh cut %d too high for a multilevel partitioner", r.EdgeCut)
	}
}

func TestMultilevelRecursiveOnMesh(t *testing.T) {
	g := generate.RoadMesh(40, 40, 0, 2)
	r, err := MultilevelRecursive(g, 8, MultilevelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, "recur", g, r, 8)
	if r.EdgeCut > 600 {
		t.Fatalf("mesh cut %d too high", r.EdgeCut)
	}
}

// For k not a power of two a split gives its sides unequal part counts,
// and each side's weight window must follow its own share: one window
// for both sides leaves the parts of the smaller side 30-85 % over
// weight. Each split may miss its targets by the imbalance, so a part
// may weigh up to (1+imbalance)^depth times the ideal; across seeds the
// misses mostly cancel, and the mean stays under 1.10.
func TestMultilevelRecursiveBalanceOddK(t *testing.T) {
	g := generate.RoadMesh(60, 60, 0, 1)
	const seeds = 10
	for _, k := range []int{3, 5, 6, 7} {
		bound := math.Pow(1+imbalance, math.Ceil(math.Log2(float64(k))))
		var sum float64
		for seed := int64(1); seed <= seeds; seed++ {
			r, err := MultilevelRecursive(g, k, MultilevelOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("k=%d seed=%d", k, seed)
			validPartition(t, name, g, r, k)
			if r.Balance > bound {
				t.Errorf("%s: balance %.3f, want at most %.3f", name, r.Balance, bound)
			}
			sum += r.Balance
		}
		if mean := sum / seeds; mean > 1.10 {
			t.Errorf("k=%d: mean balance %.3f over %d seeds, want at most 1.10", k, mean, seeds)
		}
	}
}

func TestMultilevelBisectionOnTwoCliques(t *testing.T) {
	// Two K10 cliques joined by a single edge: the optimal 2-way cut
	// is exactly 1, and any decent partitioner must find it.
	var edges []graph.Edge
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
			edges = append(edges, graph.Edge{U: 10 + i, V: 10 + j})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 10})
	g, _ := graph.Build(20, edges, graph.BuildOptions{})
	r, err := MultilevelRecursive(g, 2, MultilevelOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 1 {
		t.Fatalf("two-clique cut = %d, want 1", r.EdgeCut)
	}
}

func TestSpectralOnTwoCliques(t *testing.T) {
	var edges []graph.Edge
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
			edges = append(edges, graph.Edge{U: 10 + i, V: 10 + j})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 10})
	g, _ := graph.Build(20, edges, graph.BuildOptions{})

	r, err := SpectralRQI(g, 2, SpectralOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 1 {
		t.Fatalf("spectral RQI two-clique cut = %d, want 1", r.EdgeCut)
	}
	r2, err := SpectralLanczos(g, 2, SpectralOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.EdgeCut != 1 {
		t.Fatalf("spectral Lanczos two-clique cut = %d, want 1", r2.EdgeCut)
	}
}

func TestSpectralRQIOnMesh(t *testing.T) {
	g := generate.RoadMesh(24, 24, 0, 5)
	r, err := SpectralRQI(g, 4, SpectralOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, "spectral-rqi", g, r, 4)
	// Mesh cuts should be near-linear in the side length.
	if r.EdgeCut > 250 {
		t.Fatalf("mesh spectral cut %d too high", r.EdgeCut)
	}
}

func TestSpectralLanczosOnMesh(t *testing.T) {
	g := generate.RoadMesh(16, 16, 0, 6)
	r, err := SpectralLanczos(g, 2, SpectralOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, "spectral-lan", g, r, 2)
	if r.EdgeCut > 60 {
		t.Fatalf("mesh Lanczos cut %d too high", r.EdgeCut)
	}
}

func TestSmallWorldCutsWorseThanMesh(t *testing.T) {
	// The core Table 1 phenomenon: at equal n and m, the small-world
	// graph's cut is dramatically worse than the mesh's.
	mesh := generate.RoadMesh(50, 50, 0.04, 7)
	sw := generate.RMAT(mesh.NumVertices(), mesh.NumEdges(), generate.DefaultRMAT(), 7)
	rm, err := MultilevelKWay(mesh, 8, MultilevelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := MultilevelKWay(sw, 8, MultilevelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rs.EdgeCut < 4*rm.EdgeCut {
		t.Fatalf("small-world cut %d not clearly worse than mesh cut %d",
			rs.EdgeCut, rm.EdgeCut)
	}
}

func TestSpectralNoConvergenceSurfaces(t *testing.T) {
	// A starved iteration budget must report ErrNoConvergence rather
	// than returning garbage — the paper's "Chaco fails to complete".
	g := generate.RMAT(2048, 8192, generate.DefaultRMAT(), 8)
	opt := SpectralOptions{Seed: 8, MaxIterations: 2, Tolerance: 1e-12}
	if _, err := SpectralRQI(g, 2, opt); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("SpectralRQI: err = %v, want ErrNoConvergence", err)
	}
	if _, err := SpectralLanczos(g, 2, opt); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("SpectralLanczos: err = %v, want ErrNoConvergence", err)
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := generate.RMAT(1000, 4000, generate.DefaultRMAT(), 9)
	ws := new(Workspace)
	ws.primeLevel0(fromGraph(g), nil)
	levels := ws.coarsenToSize(64, 42, 1)
	if levels < 2 {
		t.Fatal("no coarsening happened")
	}
	for li := 1; li < levels; li++ {
		if got := ws.lv[li].view.totalVW(); got != int64(g.NumVertices()) {
			t.Fatalf("level %d lost vertex weight: %d", li, got)
		}
		if ws.lv[li].view.n() >= ws.lv[li-1].view.n() {
			t.Fatalf("level %d did not shrink", li)
		}
	}
	// Fine-to-coarse maps must be onto [0, coarse.n).
	for li := 0; li+1 < levels; li++ {
		coarseN := int32(ws.lv[li+1].view.n())
		for _, c := range ws.lv[li].coarseOf[:ws.lv[li].view.n()] {
			if c < 0 || c >= coarseN {
				t.Fatalf("map %d out of range", li)
			}
		}
	}
}

// Every coarse level must be exactly the quotient of the level below it
// under coarseOf, in canonical form: each row strictly ascending (so
// sorted and free of parallel arcs), no self-loops, and every arc
// weight the sum of the fine arcs it stands for — which conserves the
// total weight of the arcs that survive. Checked against a map-built
// quotient at several worker counts, on a symmetric adjacency (where
// the contraction's single transposition must be the level) and on a
// directed one (where it must not be).
func TestContractIsCanonicalQuotient(t *testing.T) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", generate.RMAT(3000, 24000, generate.DefaultRMAT(), 9)},
		{"mesh", generate.RoadMesh(50, 50, 0.05, 9)},
		{"rmat-directed", directedRMAT(3000, 24000, 9)},
	}
	for _, in := range inputs {
		for _, workers := range []int{1, 2, 5} {
			ws := new(Workspace)
			ws.primeLevel0(wview{off: in.g.Offsets, adj: in.g.Adj, directed: in.g.Directed()}, nil)
			levels := ws.coarsenToSize(40, 7, workers)
			if levels < 3 {
				t.Fatalf("%s: only %d levels", in.name, levels)
			}
			for li := 0; li+1 < levels; li++ {
				fine, coarse := ws.lv[li].view, ws.lv[li+1].view
				coarseOf := ws.lv[li].coarseOf
				want := make([]map[int32]int64, coarse.n())
				for x := 0; x < fine.n(); x++ {
					cx := coarseOf[x]
					for a := fine.off[x]; a < fine.off[x+1]; a++ {
						cu := coarseOf[fine.adj[a]]
						if cu == cx {
							continue
						}
						if want[cx] == nil {
							want[cx] = map[int32]int64{}
						}
						want[cx][cu] += fine.eweight(a)
					}
				}
				for c := int32(0); int(c) < coarse.n(); c++ {
					row := coarse.adj[coarse.off[c]:coarse.off[c+1]]
					if len(row) != len(want[c]) {
						t.Fatalf("%s workers=%d level %d: vertex %d has %d arcs, want %d",
							in.name, workers, li+1, c, len(row), len(want[c]))
					}
					for i, u := range row {
						if u == c {
							t.Fatalf("%s workers=%d level %d: self-loop at %d", in.name, workers, li+1, c)
						}
						if i > 0 && row[i-1] >= u {
							t.Fatalf("%s workers=%d level %d: row %d not strictly ascending", in.name, workers, li+1, c)
						}
						if got := coarse.ew[coarse.off[c]+int64(i)]; got != want[c][u] {
							t.Fatalf("%s workers=%d level %d: arc %d->%d weighs %d, want %d",
								in.name, workers, li+1, c, u, got, want[c][u])
						}
					}
				}
			}
		}
	}
}

func TestHeavyEdgeMatchingIsMatching(t *testing.T) {
	g := generate.RMAT(500, 2000, generate.DefaultRMAT(), 10)
	ws := new(Workspace)
	ws.primeLevel0(wview{off: g.Offsets, adj: g.Adj}, nil)
	for _, workers := range []int{1, 3} {
		ws.matchLevel(ws.lv[0].view, 0xdecafbad, workers, 1<<30)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			m := ws.match[v]
			if m == -1 {
				t.Fatalf("workers=%d: vertex %d unprocessed", workers, v)
			}
			if m != v && ws.match[m] != v {
				t.Fatalf("workers=%d: matching not symmetric at %d<->%d", workers, v, m)
			}
		}
	}
}
