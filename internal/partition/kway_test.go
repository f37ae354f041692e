package partition

import (
	"runtime"
	"slices"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func kwayTestGraphs() []struct {
	name string
	g    *graph.Graph
	k    int
} {
	return []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"mesh32x32", generate.RoadMesh(32, 32, 0, 11), 8},
		{"rmat12", generate.RMAT(1<<12, 8<<12, generate.DefaultRMAT(), 12), 16},
		{"disconnected", generate.ErdosRenyi(600, 500, 13), 4},
	}
}

// The engine's central contract: the partition is bit-identical at
// every worker count, including counts exceeding the machine.
func TestKWayWorkerInvariance(t *testing.T) {
	for _, tc := range kwayTestGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := MultilevelKWay(tc.g, tc.k, MultilevelOptions{Seed: 9, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, runtime.NumCPU() + 2} {
				r, err := MultilevelKWay(tc.g, tc.k, MultilevelOptions{Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ref.Part, r.Part) {
					t.Fatalf("workers=%d: partition differs from workers=1", workers)
				}
				if r.EdgeCut != ref.EdgeCut {
					t.Fatalf("workers=%d: cut %d != %d", workers, r.EdgeCut, ref.EdgeCut)
				}
			}
		})
	}
}

// A reused workspace must produce exactly what a fresh one does.
func TestKWayWorkspaceReuseMatchesFresh(t *testing.T) {
	graphs := kwayTestGraphs()
	ws := new(Workspace)
	for round := 0; round < 2; round++ {
		for _, tc := range graphs {
			fresh, err := (&Workspace{}).KWay(tc.g, tc.k, MultilevelOptions{Seed: 21, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ws.KWay(tc.g, tc.k, MultilevelOptions{Seed: 21, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh.Part, reused.Part) {
				t.Fatalf("round %d %s: reused workspace diverged from fresh", round, tc.name)
			}
		}
	}
}

// Warm repeats on the serial arm must not allocate: every buffer the
// engine touches is kept in the workspace — the level-0 integer
// weights of a weighted input and a caller's Stats record included.
func TestKWayWarmRepeatsDoNotAllocate(t *testing.T) {
	g := generate.RMAT(1<<12, 8<<12, generate.DefaultRMAT(), 14)
	var st Stats
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  MultilevelOptions
	}{
		{"unweighted", g, MultilevelOptions{Seed: 5, Workers: 1}},
		{"weighted", generate.RandomWeights(g, 100, 15), MultilevelOptions{Seed: 5, Workers: 1}},
		{"stats", g, MultilevelOptions{Seed: 5, Workers: 1, Stats: &st}},
	} {
		ws := new(Workspace)
		if _, err := ws.KWay(tc.g, 8, tc.opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ws.KWay(tc.g, 8, tc.opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: warm KWay allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// Stats must describe the run — a chained ladder from the input down,
// refinement counters that add up — and must not change it.
func TestKWayStatsDescribeTheRun(t *testing.T) {
	g := generate.RMAT(1<<13, 8<<13, generate.DefaultRMAT(), 17)
	plain, err := MultilevelKWay(g, 16, MultilevelOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		st := Stats{Levels: 99} // stale contents must be reset
		st.Level[5].Moves = 99
		r, err := MultilevelKWay(g, 16, MultilevelOptions{Seed: 3, Workers: workers, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Part, plain.Part) {
			t.Fatalf("workers=%d: recording statistics changed the partition", workers)
		}
		if st.Levels < 3 || st.Levels > MaxStatsLevels {
			t.Fatalf("workers=%d: %d levels", workers, st.Levels)
		}
		if st.Level[0].N != int64(g.NumVertices()) || st.Level[0].Arcs != int64(g.NumArcs()) {
			t.Fatalf("workers=%d: level 0 is %d/%d, want the input graph", workers, st.Level[0].N, st.Level[0].Arcs)
		}
		skipped := false
		for li := 0; li < st.Levels; li++ {
			ls := st.Level[li]
			if li+1 < st.Levels {
				next := st.Level[li+1]
				if ls.CoarseN != next.N || ls.CoarseArcs != next.Arcs || ls.CoarseN >= ls.N {
					t.Fatalf("workers=%d level %d: coarse %d/%d does not chain to %d/%d",
						workers, li, ls.CoarseN, ls.CoarseArcs, next.N, next.Arcs)
				}
			} else if ls.CoarseN != 0 || ls.CoarseArcs != 0 {
				t.Fatalf("workers=%d: coarsest level reports a coarser one", workers)
			}
			if ls.Passes < 1 || ls.Passes > 8 || ls.Evaluated < ls.N || ls.Evaluated > int64(ls.Passes)*ls.N {
				t.Fatalf("workers=%d level %d: %d passes evaluated %d of n=%d",
					workers, li, ls.Passes, ls.Evaluated, ls.N)
			}
			if ls.Passes > 1 && ls.Evaluated < int64(ls.Passes)*ls.N {
				skipped = true
			}
		}
		if !skipped {
			t.Fatalf("workers=%d: no level skipped a single evaluation", workers)
		}
		if st.Level[st.Levels] != (LevelStats{}) {
			t.Fatalf("workers=%d: rows past the ladder were not reset", workers)
		}
	}
}

// On a weighted graph the engine must minimise the weighted cut it
// reports. Two 40-cliques A and B are joined through six swing
// vertices: three hang on A by many light edges (5 of weight 1) and on
// B by few heavy ones (2 of weight 10), three the other way round.
// Counting edges, a swing vertex belongs with its five light edges and
// the cut weighs 6·20 = 120; weighing them, it belongs with its two
// heavy ones and the cut weighs 6·5 = 30.
func TestKWayMinimisesWeightedCut(t *testing.T) {
	const s = 40
	var edges []graph.Edge
	for q := int32(0); q < 2; q++ {
		for i := int32(0); i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, graph.Edge{U: q*s + i, V: q*s + j, W: 10})
			}
		}
	}
	for i := int32(0); i < 6; i++ {
		x := 2*s + i
		light, heavy := int32(0), int32(s) // first vertex of A, of B
		if i >= 3 {
			light, heavy = heavy, light
		}
		for e := int32(0); e < 5; e++ {
			edges = append(edges, graph.Edge{U: x, V: light + 6*i + e, W: 1})
		}
		for e := int32(0); e < 2; e++ {
			edges = append(edges, graph.Edge{U: x, V: heavy + 6*i + e, W: 10})
		}
	}
	g, err := graph.Build(2*s+6, edges, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r, err := MultilevelKWay(g, 2, MultilevelOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.EdgeCut != 30 {
			t.Errorf("seed %d: weighted cut %d, want 30", seed, r.EdgeCut)
		}
	}
}

// The balance window is a hard cap: no part may exceed
// ideal*(1+imbalance), with one vertex of integer slack.
func TestKWayBalanceRespected(t *testing.T) {
	for _, tc := range kwayTestGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			r, err := MultilevelKWay(tc.g, tc.k, MultilevelOptions{Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			sizes := make([]int64, tc.k)
			for _, p := range r.Part {
				sizes[p]++
			}
			maxW := int64(float64(tc.g.NumVertices()) / float64(tc.k) * 1.05)
			for p, s := range sizes {
				if s > maxW+1 {
					t.Fatalf("part %d weight %d exceeds cap %d", p, s, maxW)
				}
			}
		})
	}
}

// Seed 0 must mean the pinned repo default, not a distinct stream.
func TestKWaySeedZeroIsPinnedDefault(t *testing.T) {
	g := generate.RMAT(1<<10, 8<<10, generate.DefaultRMAT(), 15)
	a, err := MultilevelKWay(g, 4, MultilevelOptions{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultilevelKWay(g, 4, MultilevelOptions{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Part, b.Part) {
		t.Fatal("seed 0 not deterministic")
	}
	c, err := MultilevelKWay(g, 4, MultilevelOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Part, c.Part) {
		t.Fatal("different seeds produced identical partitions (suspicious)")
	}
}

// BlockedPerm must be a permutation grouping each part contiguously,
// ordered by descending degree within the block.
func TestBlockedPerm(t *testing.T) {
	g := generate.RMAT(1<<11, 8<<11, generate.DefaultRMAT(), 16)
	r, err := MultilevelKWay(g, 8, MultilevelOptions{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	perm, bounds, err := BlockedPerm(g, r.Part, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	if len(perm) != n || len(bounds) != 9 || bounds[0] != 0 || int(bounds[8]) != n {
		t.Fatalf("bad shapes: len(perm)=%d bounds=%v", len(perm), bounds)
	}
	seen := make([]bool, n)
	for _, old := range perm {
		if seen[old] {
			t.Fatalf("vertex %d appears twice", old)
		}
		seen[old] = true
	}
	for p := 0; p < 8; p++ {
		var prevDeg int64 = 1 << 62
		for i := bounds[p]; i < bounds[p+1]; i++ {
			old := perm[i]
			if r.Part[old] != int32(p) {
				t.Fatalf("new id %d (old %d) in block %d but part %d", i, old, p, r.Part[old])
			}
			deg := g.Offsets[old+1] - g.Offsets[old]
			if deg > prevDeg {
				t.Fatalf("block %d not degree-descending at %d", p, i)
			}
			prevDeg = deg
		}
	}
}
