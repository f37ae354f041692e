package sssp

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
)

// reweight returns a weighted copy of g with weights drawn by pick.
func reweight(g *graph.Graph, pick func(rng *rand.Rand) float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := g.EdgeEndpoints()
	for i := range edges {
		edges[i].W = pick(rng)
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{
		Directed: g.Directed(),
		Weighted: true,
	})
}

func uniformW(rng *rand.Rand) float64 { return float64(1 + rng.Intn(10)) }
func equalW(*rand.Rand) float64       { return 3 }

// wideW is the benchmark's weight range (1–100), where the default
// delta leaves light arcs on every RMAT vertex class.
func wideW(rng *rand.Rand) float64 { return float64(1 + rng.Intn(100)) }

// heavyTailW spans three orders of magnitude so the default delta
// leaves many heavy arcs and tiny deltas overflow the cyclic window.
func heavyTailW(rng *rand.Rand) float64 {
	u := rng.Float64()
	return 1 + math.Floor(999*u*u*u*u)
}

// parentOracle computes the documented deterministic Parent: for every
// reached v != src, the tail of the minimum-index arc a satisfying
// dist[tail(a)] + w[a] == dist[v] exactly.
func parentOracle(g *graph.Graph, src int32, dist []float64) []int32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	bestArc := make([]int64, n)
	for i := range parent {
		parent[i] = -1
		bestArc[i] = math.MaxInt64
	}
	for u := int32(0); int(u) < n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		for a := g.Offsets[u]; a < g.Offsets[u+1]; a++ {
			v := g.Adj[a]
			if du+g.W[a] == dist[v] && a < bestArc[v] {
				bestArc[v] = a
				parent[v] = u
			}
		}
	}
	parent[src] = src
	return parent
}

// TestDeltaSteppingEquivalenceMatrix drives the engine across graph
// families, weight distributions, bucket widths, and worker counts:
// Dist must be bit-identical to Dijkstra and Parent must equal the
// deterministic minimum-arc oracle in every cell.
func TestDeltaSteppingEquivalenceMatrix(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	rmat := generate.RMAT(220, 880, generate.DefaultRMAT(), 3)
	er := generate.ErdosRenyi(200, 700, 4)
	// Disconnected: 260 vertices, edges confined to the first 130.
	discEdges := []graph.Edge{}
	drng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		discEdges = append(discEdges, graph.Edge{
			U: int32(drng.Intn(130)), V: int32(drng.Intn(130)),
		})
	}
	disc := graph.MustBuild(260, discEdges, graph.BuildOptions{})
	// Directed: an ER graph rebuilt with directed arcs.
	dirEdges := er.EdgeEndpoints()
	directed := graph.MustBuild(200, dirEdges, graph.BuildOptions{Directed: true})

	cases := []tc{}
	for _, base := range []tc{{"rmat", rmat}, {"er", er}, {"disc", disc}, {"directed", directed}} {
		cases = append(cases,
			tc{base.name + "/uniform", reweight(base.g, uniformW, 11)},
			tc{base.name + "/heavytail", reweight(base.g, heavyTailW, 12)},
			tc{base.name + "/allequal", reweight(base.g, equalW, 13)},
			tc{base.name + "/ties", reweight(base.g, tieW, 15)},
		)
	}
	// Directed multigraph: every ER edge three times with the distinct
	// weights w, w+1, w+2 in random arc order, so exactly one arc of
	// each parallel run can certify its head and it is often not the
	// run's first. Pins the minimum certifying tail to the minimum
	// certifying arc index when a tail owns several arcs to v.
	mrng := rand.New(rand.NewSource(14))
	var multiEdges []graph.Edge
	for _, e := range dirEdges {
		w := uniformW(mrng)
		for _, k := range mrng.Perm(3) {
			multiEdges = append(multiEdges, graph.Edge{U: e.U, V: e.V, W: w + float64(k)})
		}
	}
	cases = append(cases, tc{"directed-multi/distinct", graph.MustBuild(200, multiEdges,
		graph.BuildOptions{Directed: true, Weighted: true, AllowMulti: true})})
	// Default heuristic, tiny (window overflow), huge (single bucket),
	// and NaN, which must mean the default as 0 does.
	deltas := []float64{0, 0.01, 1e9, math.NaN()}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, c := range cases {
		src := int32(1)
		want := oracle.Dijkstra(c.g, src)
		oracle := parentOracle(c.g, src, want.Dist)
		for _, delta := range deltas {
			for _, workers := range workerCounts {
				got := DeltaStepping(c.g, src, DeltaSteppingOptions{Delta: delta, Workers: workers})
				for v := range want.Dist {
					if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
						t.Fatalf("%s delta=%g workers=%d: dist[%d] = %g, want %g (bit-exact)",
							c.name, delta, workers, v, got.Dist[v], want.Dist[v])
					}
					if got.Parent[v] != oracle[v] {
						t.Fatalf("%s delta=%g workers=%d: parent[%d] = %d, want %d (min-arc oracle)",
							c.name, delta, workers, v, got.Parent[v], oracle[v])
					}
				}
			}
		}
	}
}

// TestDeltaSteppingWorkspaceReuseManySources reuses one pooled
// workspace for 60+ runs alternating between two graphs of different
// sizes and weight ranges, exercising the sparse reset, the per-graph
// max-weight cache, and cross-graph resizing.
func TestDeltaSteppingWorkspaceReuseManySources(t *testing.T) {
	g1 := reweight(generate.RMAT(300, 1200, generate.DefaultRMAT(), 5), uniformW, 21)
	g2 := reweight(generate.ErdosRenyi(140, 500, 6), heavyTailW, 22)
	want1, want2 := map[int32]oracle.Paths{}, map[int32]oracle.Paths{}
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	for i := 0; i < 64; i++ {
		g, want := g1, want1
		if i%3 == 2 {
			g, want = g2, want2
		}
		src := int32((i * 17) % g.NumVertices())
		if _, ok := want[src]; !ok {
			want[src] = oracle.Dijkstra(g, src)
		}
		delta := 0.0
		if i%5 == 4 {
			delta = 2.5
		}
		ws.Run(g, src, DeltaSteppingOptions{Delta: delta, Workers: 1 + i%3})
		exp := want[src]
		oracle := parentOracle(g, src, exp.Dist)
		for v := range exp.Dist {
			if math.Float64bits(ws.Dist()[v]) != math.Float64bits(exp.Dist[v]) {
				t.Fatalf("run %d src %d: dist[%d] = %g, want %g", i, src, v, ws.Dist()[v], exp.Dist[v])
			}
			if ws.parent[v] != oracle[v] {
				t.Fatalf("run %d src %d: parent[%d] = %d, want %d", i, src, v, ws.parent[v], oracle[v])
			}
		}
	}
}

// TestDeltaSteppingFarOverflow forces the capped cyclic window: a
// weight spread of six orders of magnitude with a tiny delta makes
// ceil(maxW/delta) dwarf maxSlots, so heavy relaxations must take the
// far-list detour and be redistributed as the window advances.
func TestDeltaSteppingFarOverflow(t *testing.T) {
	base := generate.ErdosRenyi(120, 420, 7)
	rng := rand.New(rand.NewSource(8))
	edges := base.EdgeEndpoints()
	for i := range edges {
		if rng.Intn(4) == 0 {
			edges[i].W = float64(100000 + rng.Intn(900000))
		} else {
			edges[i].W = float64(1 + rng.Intn(9))
		}
	}
	g := graph.MustBuild(120, edges, graph.BuildOptions{Weighted: true})
	want := oracle.Dijkstra(g, 0)
	oracle := parentOracle(g, 0, want.Dist)
	for _, workers := range []int{1, 3} {
		got := DeltaStepping(g, 0, DeltaSteppingOptions{Delta: 0.5, Workers: workers})
		for v := range want.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
				t.Fatalf("workers=%d: dist[%d] = %g, want %g", workers, v, got.Dist[v], want.Dist[v])
			}
			if got.Parent[v] != oracle[v] {
				t.Fatalf("workers=%d: parent[%d] = %d, want %d", workers, v, got.Parent[v], oracle[v])
			}
		}
	}
}

// TestDeltaSteppingSteadyStateAllocs pins the zero-allocation claim:
// once a workspace has run a source on a graph, further runs on that
// graph allocate nothing, at any worker count. The inputs cover
// weights 1–10 (default delta below the minimum weight: no light
// arcs), the benchmark's weights 1–100 (light and heavy arcs), and a
// directed graph, each at Workers 1, 2 and 4 with Stats off and on.
func TestDeltaSteppingSteadyStateAllocs(t *testing.T) {
	rmat := generate.RMAT(1<<10, 1<<13, generate.DefaultRMAT(), 9)
	directed := graph.MustBuild(rmat.NumVertices(), rmat.EdgeEndpoints(), graph.BuildOptions{Directed: true})
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"uniform", reweight(rmat, uniformW, 31)},
		{"wide", reweight(rmat, wideW, 32)},
		{"directed", reweight(directed, uniformW, 33)},
	} {
		for _, workers := range []int{1, 2, 4} {
			for _, st := range []*Stats{nil, new(Stats)} {
				g := c.g
				opt := DeltaSteppingOptions{Workers: workers, Stats: st}
				ws := AcquireWorkspace()
				// Warm the buffers over the same source cycle the
				// measurement uses: steady state means the per-slot arrays
				// have grown to the high-water mark of the workload.
				for s, i := int32(0), 0; i < 12; i++ {
					ws.Run(g, s, opt)
					s = (s + 41) % int32(g.NumVertices())
				}
				src := int32(0)
				allocs := testing.AllocsPerRun(10, func() {
					ws.Run(g, src, opt)
					src = (src + 41) % int32(g.NumVertices())
				})
				ReleaseWorkspace(ws)
				if allocs != 0 {
					t.Fatalf("%s workers=%d stats=%v: steady-state Run allocates %.1f times per run, want 0",
						c.name, workers, st != nil, allocs)
				}
			}
		}
	}
}

// TestDeltaSteppingUnweightedWorkspace checks the degenerate BFS path
// through the workspace API, including its sparse reset bookkeeping.
func TestDeltaSteppingUnweightedWorkspace(t *testing.T) {
	g := generate.RMAT(400, 1600, generate.DefaultRMAT(), 10)
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	for _, src := range []int32{0, 7, 123, 7} {
		ws.Run(g, src, DeltaSteppingOptions{})
		want := oracle.Dijkstra(g, src)
		for v := range want.Dist {
			if ws.Dist()[v] != want.Dist[v] {
				t.Fatalf("src %d: dist[%d] = %g, want %g", src, v, ws.Dist()[v], want.Dist[v])
			}
		}
		if ws.parent[src] != src {
			t.Fatalf("src %d: parent[src] = %d", src, ws.parent[src])
		}
	}
}

// Rounding triple for the re-entry regressions below, found by search:
// w1 sits in bucket 5 of delta, w2 is heavy (w2 > delta), yet
// fl(w1+w2) floors back into bucket 5 — the float edge where a
// relaxation over a heavy arc re-enters the bucket being processed. Typed
// variables, not constants: the scenario depends on float64 rounding
// at every step, and untyped constant arithmetic would evaluate the
// guard's sum in arbitrary precision instead. Each test re-verifies
// the properties so a value drift cannot silently void the scenario.
var (
	reentryDelta = float64(0.7680370929490794)
	reentryW1    = float64(3.840185464745397)
	reentryW2    = float64(0.7680370929490795)
)

func requireReentryTriple(t *testing.T) {
	t.Helper()
	if bucketOf(reentryW1, reentryDelta) != 5 {
		t.Fatal("reentryW1 drifted out of bucket 5")
	}
	if reentryW2 <= reentryDelta {
		t.Fatal("reentryW2 is no longer heavy")
	}
	if bucketOf(reentryW1+reentryW2, reentryDelta) != 5 {
		t.Fatal("fl(reentryW1+reentryW2) no longer re-enters bucket 5")
	}
}

// TestDeltaSteppingHeavyRoundingReentry pins the handling of a heavy
// relaxation that rounds back into the current bucket: after vertex
// 1's heavy arc queues vertex 2 into slot 5 during bucket 5, the run
// must re-drain that slot before advancing (slot 5 next recurs at
// bucket 5+k, outside the window), or 2's onward relaxations are lost
// and vertex 3 comes out unreached. The light 2-3 arc gives the run a
// light arc, and the far arc 0-4 overflows the capped window so a
// regression surfaces as a wrong answer rather than a livelock on a
// non-empty queue.
func TestDeltaSteppingHeavyRoundingReentry(t *testing.T) {
	requireReentryTriple(t)
	edges := []graph.Edge{
		{U: 0, V: 1, W: reentryW1},
		{U: 1, V: 2, W: reentryW2},
		{U: 2, V: 3, W: 0.5},
		{U: 0, V: 4, W: reentryDelta * 20000}, // past maxSlots buckets: far list
	}
	for _, directed := range []bool{true, false} {
		g := graph.MustBuild(5, edges, graph.BuildOptions{Directed: directed, Weighted: true})
		want := oracle.Dijkstra(g, 0)
		if math.IsInf(want.Dist[3], 1) {
			t.Fatal("scenario lost its path to vertex 3")
		}
		oracle := parentOracle(g, 0, want.Dist)
		for _, workers := range []int{1, 2, 3} {
			got := DeltaStepping(g, 0, DeltaSteppingOptions{Delta: reentryDelta, Workers: workers})
			for v := range want.Dist {
				if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
					t.Fatalf("directed=%v workers=%d: dist[%d] = %g, want %g",
						directed, workers, v, got.Dist[v], want.Dist[v])
				}
				if got.Parent[v] != oracle[v] {
					t.Fatalf("directed=%v workers=%d: parent[%d] = %d, want %d",
						directed, workers, v, got.Parent[v], oracle[v])
				}
			}
		}
	}
}

// TestDeltaSteppingAllHeavyReentryAliasing pins the single-worker
// bucket drain against requeues outpacing the batch scan: bucket 5's
// batch is [1, 2], and vertex 1's heavy arcs round two relaxations (to
// 3 and 4) back into bucket 5. If the relax loop still read the batch
// from slot 5's storage, the second requeue would overwrite the unread
// entry for vertex 2, which then never settles — no parent, and its
// pendant neighbor 6 never reached. Every arc is heavy (no light arc
// refills the slot), the graph undirected, and workers 1, so the
// requeues come from processBucket's serial relax loop.
func TestDeltaSteppingAllHeavyReentryAliasing(t *testing.T) {
	requireReentryTriple(t)
	edges := []graph.Edge{
		{U: 0, V: 1, W: reentryW1},
		{U: 0, V: 2, W: reentryW1},
		{U: 1, V: 3, W: reentryW2},
		{U: 1, V: 4, W: reentryW2},
		{U: 2, V: 6, W: reentryW1},
		{U: 0, V: 5, W: reentryDelta * 20000}, // far list: regression fails loud, not livelocked
	}
	g := graph.MustBuild(7, edges, graph.BuildOptions{Weighted: true})
	want := oracle.Dijkstra(g, 0)
	if math.IsInf(want.Dist[6], 1) {
		t.Fatal("scenario lost its path to vertex 6")
	}
	oracle := parentOracle(g, 0, want.Dist)
	got := DeltaStepping(g, 0, DeltaSteppingOptions{Delta: reentryDelta, Workers: 1})
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("dist[%d] = %g, want %g", v, got.Dist[v], want.Dist[v])
		}
		if got.Parent[v] != oracle[v] {
			t.Fatalf("parent[%d] = %d, want %d", v, got.Parent[v], oracle[v])
		}
	}
}

// TestDeltaSteppingStats checks the counts' identities against the
// run they describe, and that recording them steers nothing: Dist and
// Parent hash the same with Stats on and off.
func TestDeltaSteppingStats(t *testing.T) {
	g := reweight(generate.RMAT(1<<10, 1<<13, generate.DefaultRMAT(), 9), wideW, 32)
	for _, workers := range []int{1, 3} {
		for _, delta := range []float64{0, 0.01} {
			var st Stats
			hashes := [2]uint64{}
			for i, sp := range []*Stats{nil, &st} {
				ws := AcquireWorkspace()
				ws.Run(g, 0, DeltaSteppingOptions{Workers: workers, Delta: delta, Stats: sp})
				h := fnv.New64a()
				resultHash(h, ws.Dist(), ws.parent)
				hashes[i] = h.Sum64()
				var reachedArcs int64
				for _, v := range ws.Reached() {
					reachedArcs += g.Offsets[v+1] - g.Offsets[v]
				}
				reached := int64(len(ws.Reached()))
				ReleaseWorkspace(ws)
				if sp == nil {
					continue
				}
				if hashes[0] != hashes[1] {
					t.Fatalf("workers=%d delta=%g: Stats changed the result", workers, delta)
				}
				if st.Visits != st.Drained-st.Dropped || st.Visits < reached || st.Arcs < reachedArcs ||
					st.Buckets < 1 || st.Phases < st.Buckets {
					t.Fatalf("workers=%d delta=%g: inconsistent %+v (reached %d, reached arcs %d)",
						workers, delta, st, reached, reachedArcs)
				}
				if delta == 0.01 && st.FarRedistributions == 0 {
					t.Fatalf("workers=%d delta=%g: %d far redistributions", workers, delta, st.FarRedistributions)
				}
			}
		}
	}
	// Run zeroes the record; the unweighted path leaves it zero.
	st := Stats{Buckets: 7}
	DeltaStepping(generate.RMAT(64, 256, generate.DefaultRMAT(), 1), 0, DeltaSteppingOptions{Stats: &st})
	if st != (Stats{}) {
		t.Fatalf("unweighted run left %+v", st)
	}
}
