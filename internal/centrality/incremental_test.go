package centrality

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/graph"
)

func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func perturb(t testing.TB, g *graph.Graph, rng *rand.Rand, nAdd, nDel int) *graph.Graph {
	t.Helper()
	n := int32(g.NumVertices())
	var add, del []graph.Edge
	for i := 0; i < nAdd; i++ {
		add = append(add, graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
	}
	ends := g.EdgeEndpoints()
	for i := 0; i < nDel && len(ends) > 0; i++ {
		del = append(del, ends[rng.Intn(len(ends))])
	}
	out, err := graph.MergeDelta(g, add, del)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPageRankFromMatchesFull(t *testing.T) {
	g := generate.RMAT(1<<11, 8<<11, generate.DefaultRMAT(), 5)
	opt := PageRankOptions{Tolerance: 1e-10}
	prev := PageRank(g, opt)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 4; step++ {
		g2 := perturb(t, g, rng, 40, 20)
		full := PageRank(g2, opt)
		inc := PageRankFrom(g2, prev, opt)
		if d := l1(inc, full); d > 1e-6 {
			t.Fatalf("step %d: L1(inc, full) = %g", step, d)
		}
		// Scores must be a distribution.
		var sum float64
		for _, v := range inc {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: sum = %g", step, sum)
		}
		g, prev = g2, inc
	}
}

func TestPageRankFromDeterministic(t *testing.T) {
	g := generate.ErdosRenyi(800, 3200, 3)
	opt := PageRankOptions{}
	prev := PageRank(g, opt)
	rng := rand.New(rand.NewSource(4))
	g2 := perturb(t, g, rng, 25, 10)
	var ref []float64
	for _, w := range []int{1, 2, 3, 8} {
		o := opt
		o.Workers = w
		got := PageRankFrom(g2, prev, o)
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: score[%d] differs: %g vs %g", w, i, got[i], ref[i])
			}
		}
	}
}

func TestPageRankFromFallbacks(t *testing.T) {
	g := generate.ErdosRenyi(300, 900, 7)
	opt := PageRankOptions{}
	full := PageRank(g, opt)

	// nil / wrong-length / degenerate prev fall back to the cold start,
	// bit for bit.
	for _, prev := range [][]float64{nil, make([]float64, 10), make([]float64, 300)} {
		got := PageRankFrom(g, prev, opt)
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("fallback (len(prev)=%d) differs from cold at %d", len(prev), i)
			}
		}
	}

	// Directed graphs rebuild cold through PageRank whatever prev
	// holds.
	dg := cycleWithTail()
	want := PageRank(dg, opt)
	got := PageRankFrom(dg, []float64{1, 0, 0, 0}, opt)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("directed fallback differs at %d", i)
		}
	}
}

// cycleWithTail is the directed 3-cycle 0→1→2→0 with the tail 3→0.
func cycleWithTail() *graph.Graph {
	return graph.MustBuild(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 0}},
		graph.BuildOptions{Directed: true})
}

func TestPageRankFromDanglingVertices(t *testing.T) {
	// Vertices 8..11 are isolated (dangling under the undirected kernel).
	var edges []graph.Edge
	for i := int32(0); i < 8; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % 8})
	}
	g := graph.MustBuild(12, edges, graph.BuildOptions{})
	opt := PageRankOptions{}
	prev := PageRank(g, opt)
	g2, err := graph.MergeDelta(g, []graph.Edge{{U: 8, V: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := PageRank(g2, opt)
	inc := PageRankFrom(g2, prev, opt)
	if d := l1(inc, full); d > 1e-6 {
		t.Fatalf("dangling L1 = %g", d)
	}
}

func TestPageRankFromWarmStart(t *testing.T) {
	g := generate.RMAT(1<<10, 8<<10, generate.DefaultRMAT(), 9)
	opt := PageRankOptions{}
	full := PageRank(g, opt)
	warm := PageRankFrom(g, full, opt)
	if d := l1(warm, full); d > 1e-8 {
		t.Fatalf("warm restart moved scores by %g", d)
	}
	if got := PageRankFrom(g, nil, opt); l1(got, full) > 1e-6 {
		t.Fatal("nil prev must fall back to cold start")
	}
}

// The warm kernel reads prev and returns a fresh slice: serve publishes
// the previous epoch's vector as an immutable artifact and hands the
// same slice in as the start vector.
func TestPageRankFromLeavesPrevUntouched(t *testing.T) {
	g := generate.RMAT(1<<10, 8<<10, generate.DefaultRMAT(), 9)
	prev := PageRank(g, PageRankOptions{})
	keep := append([]float64(nil), prev...)
	g2 := perturb(t, g, rand.New(rand.NewSource(1)), 30, 10)
	got := PageRankFrom(g2, prev, PageRankOptions{})
	if &got[0] == &prev[0] {
		t.Fatal("result aliases prev")
	}
	for i := range prev {
		if prev[i] != keep[i] {
			t.Fatalf("prev[%d] was written", i)
		}
	}
}

// Cold PageRank is the analysis path and every warm answer's
// reference: its bits are pinned to what the commit before the warm
// chain produced (amd64; other ports may fuse the multiply-adds). The
// directed hashes were recorded with the separate directed loop that
// the pull over graph.Reverse replaced, so both directions share one
// pinned arithmetic.
func TestPageRankColdGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were taken on amd64")
	}
	hash := func(x []float64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	rmat := generate.RMAT(1<<10, 8<<10, generate.DefaultRMAT(), 9)
	drmat := graph.MustBuild(rmat.NumVertices(), rmat.EdgeEndpoints(), graph.BuildOptions{Directed: true})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"karate", datasets.Karate(), 0xd234ab0dbe085477},
		{"rmat10", rmat, 0x90e05fb08b86223d},
		{"rmat10-directed", drmat, 0x210aa7259569825b},
		{"cycle-with-tail", cycleWithTail(), 0x4e30d7ba7ae72d5e},
	} {
		for _, w := range []int{1, 3} {
			// NaN in a float option means "unset", as 0 does.
			for _, opt := range []PageRankOptions{
				{Workers: w},
				{Workers: w, Tolerance: math.NaN()},
			} {
				if got := hash(PageRank(tc.g, opt)); got != tc.want {
					t.Errorf("%s %+v: hash %#x, want %#x", tc.name, opt, got, tc.want)
				}
			}
		}
	}
}

// BenchmarkPageRankWarm prices the warm start against the cold build
// over the delta sizes an epoch commit produces (DESIGN.md §5h has the
// table, and the residual-push numbers that retired it): delta = the
// given share of m in edge operations, nine adds of random pairs to one
// delete of an existing edge. -short shrinks both graphs.
func BenchmarkPageRankWarm(b *testing.B) {
	scale, side := 17, 362
	if testing.Short() {
		scale, side = 12, 64
	}
	opt := PageRankOptions{}
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", generate.RMAT(1<<scale, 8<<scale, generate.DefaultRMAT(), 1)},
		{"road", generate.RoadMesh(side, side, 0.05, 1)},
	} {
		prev := PageRank(gr.g, opt)
		for _, frac := range []float64{0.001, 0.01, 0.05} {
			ops := int(frac * float64(gr.g.NumEdges()))
			next := perturb(b, gr.g, rand.New(rand.NewSource(7)), ops-ops/10, ops/10)
			tag := fmt.Sprintf("%s/delta=%g%%", gr.name, 100*frac)
			b.Run(tag+"/cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PageRank(next, opt)
				}
			})
			b.Run(tag+"/warm", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PageRankFrom(next, prev, opt)
				}
			})
		}
	}
}
