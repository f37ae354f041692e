package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// buildOracle re-implements the seed serial builder independently of
// assemble.go (global stable sort + counting pass + per-vertex stable
// sort), so the parallel kernel is checked against a second
// implementation rather than against itself.
func buildOracle(n int, edges []Edge, opt BuildOptions) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	type tagged struct {
		e   Edge
		pos int
	}
	var clean []tagged
	for i, e := range edges {
		if e.U == e.V && !opt.AllowSelfLoops {
			continue
		}
		if !opt.Directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		clean = append(clean, tagged{e, i})
	}
	if !opt.AllowMulti {
		sort.Slice(clean, func(i, j int) bool {
			a, b := clean[i], clean[j]
			if a.e.U != b.e.U {
				return a.e.U < b.e.U
			}
			if a.e.V != b.e.V {
				return a.e.V < b.e.V
			}
			return a.pos < b.pos
		})
		var dedup []tagged
		for _, t := range clean {
			if len(dedup) > 0 && t.e.U == dedup[len(dedup)-1].e.U && t.e.V == dedup[len(dedup)-1].e.V {
				continue
			}
			dedup = append(dedup, t)
		}
		clean = dedup
	}
	m := len(clean)

	type arc struct {
		to  int32
		eid int32
		w   float64
	}
	adjOf := make([][]arc, n)
	for i, t := range clean {
		adjOf[t.e.U] = append(adjOf[t.e.U], arc{t.e.V, int32(i), t.e.W})
		if !opt.Directed {
			adjOf[t.e.V] = append(adjOf[t.e.V], arc{t.e.U, int32(i), t.e.W})
		}
	}
	offsets := make([]int64, n+1)
	var total int64
	for v := 0; v < n; v++ {
		offsets[v] = total
		total += int64(len(adjOf[v]))
	}
	offsets[n] = total
	adj := make([]int32, total)
	eid := make([]int32, total)
	var w []float64
	if opt.Weighted {
		w = make([]float64, total)
	}
	for v := 0; v < n; v++ {
		a := adjOf[v]
		sort.Slice(a, func(i, j int) bool {
			if a[i].to != a[j].to {
				return a[i].to < a[j].to
			}
			return a[i].eid < a[j].eid
		})
		base := offsets[v]
		for i, x := range a {
			adj[base+int64(i)] = x.to
			eid[base+int64(i)] = x.eid
			if w != nil {
				w[base+int64(i)] = x.w
			}
		}
	}
	return &Graph{
		Offsets:  offsets,
		Adj:      adj,
		EID:      eid,
		W:        w,
		directed: opt.Directed,
		numEdges: m,
	}, nil
}

func requireIdentical(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.directed != want.directed || got.numEdges != want.numEdges {
		t.Fatalf("%s: kind/m mismatch: got (%v,%d) want (%v,%d)",
			tag, got.directed, got.numEdges, want.directed, want.numEdges)
	}
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("%s: offsets length %d != %d", tag, len(got.Offsets), len(want.Offsets))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: Offsets[%d] = %d, want %d", tag, i, got.Offsets[i], want.Offsets[i])
		}
	}
	if len(got.Adj) != len(want.Adj) || len(got.EID) != len(want.EID) {
		t.Fatalf("%s: arc array lengths (%d,%d) != (%d,%d)",
			tag, len(got.Adj), len(got.EID), len(want.Adj), len(want.EID))
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s: Adj[%d] = %d, want %d", tag, i, got.Adj[i], want.Adj[i])
		}
		if got.EID[i] != want.EID[i] {
			t.Fatalf("%s: EID[%d] = %d, want %d", tag, i, got.EID[i], want.EID[i])
		}
	}
	if (got.W == nil) != (want.W == nil) {
		t.Fatalf("%s: weighted mismatch: got W nil=%v want nil=%v", tag, got.W == nil, want.W == nil)
	}
	for i := range want.W {
		if got.W[i] != want.W[i] {
			t.Fatalf("%s: W[%d] = %v, want %v", tag, i, got.W[i], want.W[i])
		}
	}
}

type buildCase struct {
	name  string
	n     int
	edges []Edge
}

func adversarialCases() []buildCase {
	rng := rand.New(rand.NewSource(7))
	cases := []buildCase{
		{"empty", 0, nil},
		{"isolated", 9, nil},
		{"single", 2, []Edge{{0, 1, 2.5}}},
		{"self-loops-only", 4, []Edge{{0, 0, 1}, {2, 2, 3}, {2, 2, 5}}},
		{"dup-distinct-weights", 3, []Edge{
			{0, 1, 5}, {1, 0, 7}, {0, 1, 9}, {2, 1, 1}, {1, 2, 4}, {0, 1, 5},
		}},
		{"boundary-endpoints", 5, []Edge{{0, 4, 1}, {4, 0, 2}, {4, 4, 3}, {0, 0, 4}}},
		{"same-edge-repeated", 2, func() []Edge {
			e := make([]Edge, 500)
			for i := range e {
				e[i] = Edge{0, 1, float64(i)}
			}
			return e
		}()},
	}

	// Single high-degree hub with duplicates, self loops, and both
	// orientations.
	hub := buildCase{name: "hub", n: 600}
	for i := 1; i < 600; i++ {
		hub.edges = append(hub.edges, Edge{0, int32(i), float64(i)})
		if i%3 == 0 {
			hub.edges = append(hub.edges, Edge{int32(i), 0, float64(i) + 0.5})
		}
		if i%17 == 0 {
			hub.edges = append(hub.edges, Edge{0, 0, 1})
		}
	}
	cases = append(cases, hub)

	// RMAT-style skew: recursive quadrant sampling, heavy duplicates.
	rmat := buildCase{name: "rmat-skew", n: 1 << 9}
	for i := 0; i < 6000; i++ {
		var u, v int32
		for l := 0; l < 9; l++ {
			u <<= 1
			v <<= 1
			r := rng.Float64()
			switch {
			case r < 0.55:
			case r < 0.65:
				v |= 1
			case r < 0.75:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		rmat.edges = append(rmat.edges, Edge{u, v, rng.Float64()})
	}
	cases = append(cases, rmat)

	// Uniform random with many collisions.
	uni := buildCase{name: "uniform-dense", n: 40}
	for i := 0; i < 4000; i++ {
		uni.edges = append(uni.edges, Edge{int32(rng.Intn(40)), int32(rng.Intn(40)), float64(rng.Intn(5))})
	}
	cases = append(cases, uni)

	// Large sparse case: every worker gets thousands of edges.
	big := buildCase{name: "big-sparse", n: 5000}
	for i := 0; i < 3<<12; i++ {
		big.edges = append(big.edges, Edge{int32(rng.Intn(5000)), int32(rng.Intn(5000)), rng.Float64()})
	}
	cases = append(cases, big)
	return cases
}

func optionMatrix() []BuildOptions {
	var opts []BuildOptions
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for _, loops := range []bool{false, true} {
				for _, multi := range []bool{false, true} {
					opts = append(opts, BuildOptions{
						Directed: directed, Weighted: weighted,
						AllowSelfLoops: loops, AllowMulti: multi,
					})
				}
			}
		}
	}
	return opts
}

func optTag(o BuildOptions) string {
	return fmt.Sprintf("dir=%v,w=%v,loops=%v,multi=%v",
		o.Directed, o.Weighted, o.AllowSelfLoops, o.AllowMulti)
}

// TestBuildParallelBitIdentical is the tentpole property test: the
// parallel assembly kernel must be bit-identical (Offsets/Adj/EID/W)
// to the oracle builder for every option combination, any worker
// count, and adversarial inputs.
func TestBuildParallelBitIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, tc := range adversarialCases() {
		for _, opt := range optionMatrix() {
			want, err := buildOracle(tc.n, tc.edges, opt)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", tc.name, optTag(opt), err)
			}
			for _, workers := range workerCounts {
				tag := fmt.Sprintf("%s/%s/workers=%d", tc.name, optTag(opt), workers)
				got, err := buildParallel(tc.n, tc.edges, opt, workers)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				requireIdentical(t, tag, got, want)
				// Validate's symmetry check resolves arcs via
				// EdgeIDOf, which cannot distinguish parallel arcs:
				// it only applies to simple graphs.
				if !opt.AllowMulti {
					if err := Validate(got); err != nil {
						t.Fatalf("%s: invalid CSR: %v", tag, err)
					}
				}
			}
			// The public entry point must agree too.
			pub, err := Build(tc.n, tc.edges, opt)
			if err != nil {
				t.Fatalf("%s/%s: Build: %v", tc.name, optTag(opt), err)
			}
			requireIdentical(t, tc.name+"/"+optTag(opt)+"/Build", pub, want)
		}
	}
}

func TestBuildParallelErrors(t *testing.T) {
	edges := make([]Edge, 100)
	for i := range edges {
		edges[i] = Edge{0, 1, 1}
	}
	edges[41] = Edge{0, 5, 1}
	edges[77] = Edge{-3, 1, 1}
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := buildParallel(3, edges, BuildOptions{}, workers)
		if err == nil {
			t.Fatalf("workers=%d: want error for out-of-range edge", workers)
		}
		want := "graph: edge (0,5) out of range [0,3)"
		if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want earliest offender %q", workers, err, want)
		}
	}
	if _, err := buildParallel(-1, nil, BuildOptions{}, 4); err == nil {
		t.Fatal("want error for negative vertex count")
	}
	if _, err := buildParallel(math.MaxInt32+1, nil, BuildOptions{}, 4); err == nil {
		t.Fatal("want error for a vertex count int32 ids cannot address")
	}
}

// TestUndirectedMatchesEdgeListSymmetrization checks the CSR-direct
// symmetrization against the reference route (Build over the
// materialized edge list), including weighted, multi-arc, and
// self-loop-bearing directed inputs.
func TestUndirectedMatchesEdgeListSymmetrization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type gcase struct {
		name string
		g    *Graph
	}
	var cases []gcase

	mk := func(name string, n int, edges []Edge, opt BuildOptions) {
		opt.Directed = true
		g, err := buildOracle(n, edges, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, gcase{name, g})
	}

	var sparse []Edge
	for i := 0; i < 4000; i++ {
		sparse = append(sparse, Edge{int32(rng.Intn(800)), int32(rng.Intn(800)), rng.Float64()})
	}
	mk("sparse-weighted", 800, sparse, BuildOptions{Weighted: true})
	mk("sparse-unweighted", 800, sparse, BuildOptions{})
	mk("with-self-loops", 800, sparse, BuildOptions{Weighted: true, AllowSelfLoops: true})
	mk("multigraph", 800, sparse, BuildOptions{Weighted: true, AllowMulti: true, AllowSelfLoops: true})

	var anti []Edge
	for i := 0; i < 500; i++ {
		u, v := int32(rng.Intn(60)), int32(rng.Intn(60))
		anti = append(anti, Edge{u, v, float64(i)}, Edge{v, u, float64(1000 + i)})
	}
	mk("antiparallel", 60, anti, BuildOptions{Weighted: true, AllowMulti: true})
	mk("empty", 10, nil, BuildOptions{Weighted: true})

	for _, tc := range cases {
		want, err := buildOracle(tc.g.NumVertices(), tc.g.EdgeEndpoints(),
			BuildOptions{Weighted: tc.g.Weighted()})
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got := Undirected(tc.g)
		requireIdentical(t, tc.name, got, want)
		if err := Validate(got); err != nil {
			t.Fatalf("%s: invalid CSR: %v", tc.name, err)
		}
	}

	// Undirected input passes through untouched.
	und := MustBuild(4, []Edge{{0, 1, 1}, {1, 2, 1}}, BuildOptions{})
	if Undirected(und) != und {
		t.Fatal("Undirected(undirected) should return the same graph")
	}
}
