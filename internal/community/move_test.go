package community

import (
	"math/rand"
	"testing"

	"snap/internal/components"
	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/par"
)

func moveTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	planted, _ := generate.PlantedPartition(5, 40, 0.4, 0.005, 8)
	return map[string]*graph.Graph{
		"karate":  datasets.Karate(),
		"planted": planted,
		"rmat10":  generate.RMAT(1024, 8192, generate.DefaultRMAT(), 7),
	}
}

func sameAssign(t *testing.T, what string, a, b Clustering) {
	t.Helper()
	if a.Count != b.Count || a.Q != b.Q {
		t.Fatalf("%s: count/Q mismatch: %d/%.9f vs %d/%.9f", what, a.Count, a.Q, b.Count, b.Q)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("%s: assign[%d] = %d vs %d", what, v, a.Assign[v], b.Assign[v])
		}
	}
}

// The engine's determinism contract: for a fixed seed the partition is
// identical at EVERY worker count — the candidate set of a batch
// depends only on the frozen batch-start state, and applies replay
// serially in batch order.
func TestLouvainWorkerInvariance(t *testing.T) {
	for name, g := range moveTestGraphs(t) {
		ref := Louvain(g, LouvainOptions{Workers: 1, Seed: 42})
		for _, w := range []int{2, 3, par.Workers() + 2} {
			got := Louvain(g, LouvainOptions{Workers: w, Seed: 42})
			sameAssign(t, name, ref, got)
		}
	}
}

func TestRefineWorkerInvariance(t *testing.T) {
	ws := new(MoveWorkspace)
	for name, g := range moveTestGraphs(t) {
		start, _ := PMA(g, PMAOptions{StopWhenNegative: true})
		ref := ws.Refine(g, start, 8, 7, 1)
		refCopy := Clustering{Assign: append([]int32(nil), ref.Assign...), Count: ref.Count, Q: ref.Q}
		for _, w := range []int{2, 3, par.Workers() + 2} {
			got := ws.Refine(g, start, 8, 7, w)
			sameAssign(t, name, refCopy, got)
		}
	}
}

func TestLouvainDeterministicForFixedSeed(t *testing.T) {
	g := datasets.Karate()
	a := Louvain(g, LouvainOptions{Seed: 9})
	b := Louvain(g, LouvainOptions{Seed: 9})
	sameAssign(t, "karate", a, b)
}

// A warm workspace must reproduce a cold one exactly (stale epochs,
// buffers, and free lists never leak between runs).
func TestMoveWorkspaceReuseMatchesFresh(t *testing.T) {
	g := datasets.Karate()
	planted, _ := generate.PlantedPartition(5, 40, 0.4, 0.005, 8)
	ws := new(MoveWorkspace)
	for i := 0; i < 3; i++ {
		for name, gr := range map[string]*graph.Graph{"karate": g, "planted": planted} {
			fresh := Louvain(gr, LouvainOptions{Seed: 5})
			warm := ws.Louvain(gr, LouvainOptions{Seed: 5})
			sameAssign(t, name, fresh, warm)
		}
	}
}

// Refine may only ever raise Q, from any starting partition.
func TestEngineRefineMonotone(t *testing.T) {
	for name, g := range moveTestGraphs(t) {
		for _, start := range []Clustering{
			Singletons(g),
			Louvain(g, LouvainOptions{Seed: 3}),
		} {
			ref := Refine(g, start, 8, 1)
			if ref.Q < start.Q-1e-12 {
				t.Fatalf("%s: Refine decreased Q: %g -> %g", name, start.Q, ref.Q)
			}
			if q := Modularity(g, ref.Assign, 1); q != ref.Q {
				t.Fatalf("%s: reported Q %g != recomputed %g", name, ref.Q, q)
			}
		}
	}
}

// mapBaselineQ is the modularity the seed's map-based Louvain (seed 1)
// and Refine (from the pMA start, 16 passes, seed 1) reached on each
// test graph, recorded at commit 3643b0f before that code was deleted.
var mapBaselineQ = map[string]struct{ louvain, refine float64 }{
	"karate":  {louvain: 0.4155982905982906, refine: 0.38132807363576593},
	"planted": {louvain: 0.7519216641075629, refine: 0.7519216641075629},
	"rmat10":  {louvain: 0.3087001938725368, refine: 0.3012683775706573},
}

// The scatter engine must not lose quality against the seed's
// map-based implementations.
func TestEngineQualityNoWorseThanMapBaseline(t *testing.T) {
	for name, g := range moveTestGraphs(t) {
		base := mapBaselineQ[name]
		eng := Louvain(g, LouvainOptions{Seed: 1})
		if eng.Q < base.louvain-0.01 {
			t.Fatalf("%s: engine Louvain Q=%.6f below map baseline %.6f", name, eng.Q, base.louvain)
		}
		start, _ := PMA(g, PMAOptions{StopWhenNegative: true})
		engR := Refine(g, start, 16, 1)
		if engR.Q < base.refine-0.01 {
			t.Fatalf("%s: engine Refine Q=%.6f below map baseline %.6f", name, engR.Q, base.refine)
		}
	}
}

// louvainQualityPin is the mean Louvain Q over seeds 0–9 (Workers 1)
// that the unpruned engine, which examined every vertex in every
// pass, reached at commit a8525c7: the benchmark graph families at
// CI's -short sizes and the six Table 2 networks. A mean, because one
// seed's Q is a path-dependent local optimum: the seed-to-seed spread
// is up to 0.035 here, and on the 453-vertex Metabolic surrogate seed
// 1 alone moved 0.4197 → 0.4144 while the mean moved 0.0008.
var louvainQualityPin = []struct {
	name string
	g    func() *graph.Graph
	q    float64
}{
	{"rmat14", func() *graph.Graph { return generate.RMAT(1<<14, 8<<14, generate.DefaultRMAT(), 1) }, 0.33126812036715281},
	{"road128", func() *graph.Graph { return generate.RoadMesh(128, 128, 0.05, 1) }, 0.92053373899101953},
	{"Karate", nil, 0.41442307692307684},
	{"Political books", nil, 0.50198734066566919},
	{"Jazz musicians", nil, 0.44297853951898258},
	{"Metabolic", nil, 0.42448905959457395},
	{"E-mail", nil, 0.57150626580915465},
	{"Key signing", nil, 0.86030058879101312},
}

// Pruning local moving to the active set may not cost more than 0.002
// of mean modularity on any pinned graph.
func TestLouvainQualityPin(t *testing.T) {
	ws := new(MoveWorkspace)
	for _, tc := range louvainQualityPin {
		var g *graph.Graph
		if tc.g != nil {
			g = tc.g()
		} else {
			net, err := datasets.ByLabel(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			g = net.Build(1)
		}
		var sum float64
		for seed := int64(0); seed < 10; seed++ {
			sum += ws.Louvain(g, LouvainOptions{Workers: 1, Seed: seed}).Q
		}
		if q := sum / 10; q < tc.q-0.002 {
			t.Errorf("%s: mean Louvain Q %.5f, more than 0.002 below the unpruned %.5f", tc.name, q, tc.q)
		}
	}
}

// The last pass of every level must certify its fixpoint — a full pass
// that applied nothing — unless the level ran out of passes. Refine
// inherits the certificate: it is the same localMove. The record must
// describe the run identically at every worker count and steer
// nothing.
func TestLouvainStatsCertifyFixpoint(t *testing.T) {
	ws := new(MoveWorkspace)
	for name, g := range moveTestGraphs(t) {
		var ref MoveStats
		for _, workers := range []int{1, 2, 4} {
			st := MoveStats{Levels: 99} // stale contents must be reset
			got := ws.Louvain(g, LouvainOptions{Workers: workers, Seed: 1, Stats: &st})
			if h := clusteringHash(got); h != moveGoldens[name].louvain {
				t.Errorf("%s workers=%d: Stats on changed the clustering (hash %#x)", name, workers, h)
			}
			if st.Levels < 1 || st.Levels > MaxMoveStatsLevels {
				t.Fatalf("%s workers=%d: Levels = %d", name, workers, st.Levels)
			}
			for lv := 0; lv < st.Levels; lv++ {
				ls := st.Level[lv]
				if ls.Passes < 1 || !ls.Pass[0].Full || ls.Pass[0].Examined != ls.N {
					t.Errorf("%s workers=%d level %d: pass 0 %+v of %d passes, want a full pass over %d vertices", name, workers, lv, ls.Pass[0], ls.Passes, ls.N)
				}
				for p, ps := range ls.Pass[:ls.Passes] {
					if ps.Applied > ps.Proposed || ps.Proposed > ps.Examined || ps.Examined > ls.N || (ps.Full && ps.Examined != ls.N) {
						t.Errorf("%s workers=%d level %d pass %d: inconsistent %+v (n %d)", name, workers, lv, p, ps, ls.N)
					}
				}
				last := ls.Pass[ls.Passes-1]
				if !(last.Full && last.Applied == 0) && ls.Passes != louvainPasses {
					t.Errorf("%s workers=%d level %d: last of %d passes %+v neither certifies a fixpoint nor hits the cap", name, workers, lv, ls.Passes, last)
				}
			}
			if st.Levels < MaxMoveStatsLevels && st.Level[st.Levels] != (MoveLevelStats{}) {
				t.Errorf("%s workers=%d: a row past Levels was written", name, workers)
			}
			if workers == 1 {
				ref = st
			} else if st != ref {
				t.Errorf("%s workers=%d: Stats differ from Workers 1", name, workers)
			}
		}
	}
}

// Acceptance criterion: a warm workspace runs the full multilevel
// Louvain (with and without Stats) and a Refine pass with zero
// steady-state allocations.
func TestMoveWorkspaceZeroAllocSteadyState(t *testing.T) {
	g := datasets.Karate()
	ws := new(MoveWorkspace)
	opt := LouvainOptions{Workers: 1, Seed: 1}
	ws.Louvain(g, opt) // warm-up sizes every buffer
	if n := testing.AllocsPerRun(20, func() { ws.Louvain(g, opt) }); n != 0 {
		t.Fatalf("warm ws.Louvain allocates %.1f/op, want 0", n)
	}
	opt.Stats = new(MoveStats)
	if n := testing.AllocsPerRun(20, func() { ws.Louvain(g, opt) }); n != 0 {
		t.Fatalf("warm ws.Louvain with Stats allocates %.1f/op, want 0", n)
	}
	start := Singletons(g)
	ws.Refine(g, start, 8, 1, 1)
	if n := testing.AllocsPerRun(20, func() { ws.Refine(g, start, 8, 1, 1) }); n != 0 {
		t.Fatalf("warm ws.Refine allocates %.1f/op, want 0", n)
	}
}

func TestMoveScatterAndRelabeler(t *testing.T) {
	sc := &moveScatter{}
	sc.ensure(8)
	sc.epoch = ^uint32(0) - 1 // force a wraparound within the test
	for round := 0; round < 4; round++ {
		sc.begin()
		sc.add(3, 1)
		sc.add(5, 2.5)
		sc.add(3, 1)
		if got := sc.get(3); got != 2 {
			t.Fatalf("round %d: get(3) = %g", round, got)
		}
		if got := sc.get(5); got != 2.5 {
			t.Fatalf("round %d: get(5) = %g", round, got)
		}
		if got := sc.get(0); got != 0 {
			t.Fatalf("round %d: get(0) = %g (stale)", round, got)
		}
		if len(sc.touched) != 2 {
			t.Fatalf("round %d: touched = %v", round, sc.touched)
		}
	}
	r := &relabeler{}
	r.ensure(10)
	r.epoch = ^uint32(0) // wraparound on first begin
	r.begin()
	order := []int32{7, 2, 7, 9, 2, 0}
	want := []int32{0, 1, 0, 2, 1, 3}
	for i, c := range order {
		if got := r.id(c); got != want[i] {
			t.Fatalf("id(%d) = %d, want %d", c, got, want[i])
		}
	}
	if r.next != 4 {
		t.Fatalf("next = %d", r.next)
	}
}

// The pLA contact rows must stay consistent with a brute-force
// member-list recount (the seed implementation's method) after a full
// concurrent aggregation plus bridge amalgamation.
func TestPLARowsMatchMemberScan(t *testing.T) {
	for name, g := range moveTestGraphs(t) {
		bc := components.Biconnected(g)
		alive := make([]bool, g.NumEdges())
		for i := range alive {
			alive[i] = !bc.Bridge[i]
		}
		comps := components.Connected(g, alive).Members()
		st := newPLAState(g, bc.Bridge)
		checkPLARows(t, name+"/initial", st)
		par.ForGuidedN(len(comps), 1, 4, func(ci int) {
			comp := comps[ci]
			if len(comp) < 2 {
				return
			}
			metric := make([]float64, g.NumVertices())
			for v := range metric {
				metric[v] = float64(g.Degree(int32(v)))
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			st.aggregate(comp, metric, 8, rng)
		})
		checkPLARows(t, name+"/aggregated", st)
		st.skipEdge = nil
		for eid, e := range g.EdgeEndpoints() {
			if !bc.Bridge[eid] {
				continue
			}
			cu, cv := st.assign[e.U], st.assign[e.V]
			if cu != cv {
				st.rowID[cu], st.rowW[cu] = rowAdd(st.rowID[cu], st.rowW[cu], cv, 1)
				st.rowID[cv], st.rowW[cv] = rowAdd(st.rowID[cv], st.rowW[cv], cu, 1)
			}
		}
		for eid, e := range g.EdgeEndpoints() {
			if !bc.Bridge[eid] {
				continue
			}
			cu, cv := st.assign[e.U], st.assign[e.V]
			if cu != cv {
				st.tryMerge(cu, cv)
			}
		}
		checkPLARows(t, name+"/amalgamated", st)
	}
}

// checkPLARows recounts every cluster's unmasked edges per neighboring
// cluster from the member lists and compares with the contact rows.
func checkPLARows(t *testing.T, what string, st *plaState) {
	t.Helper()
	g := st.g
	for c := range st.member {
		counts := map[int32]int32{}
		for _, v := range st.member[c] {
			adj := g.Neighbors(v)
			eids := g.EdgeIDs(v)
			for ai, u := range adj {
				if st.skipEdge != nil && st.skipEdge[eids[ai]] {
					continue
				}
				if cu := st.assign[u]; cu != int32(c) {
					counts[cu]++
				}
			}
		}
		if len(counts) != len(st.rowID[c]) {
			t.Fatalf("%s: cluster %d: %d row entries, scan found %d (%v vs %v)",
				what, c, len(st.rowID[c]), len(counts), st.rowID[c], counts)
		}
		for i, d := range st.rowID[c] {
			if i > 0 && st.rowID[c][i-1] >= d {
				t.Fatalf("%s: cluster %d: row ids not sorted: %v", what, c, st.rowID[c])
			}
			if counts[d] != st.rowW[c][i] {
				t.Fatalf("%s: cluster %d -> %d: row weight %d, scan %d",
					what, c, d, st.rowW[c][i], counts[d])
			}
		}
	}
}
