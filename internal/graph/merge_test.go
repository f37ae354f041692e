package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// mergeModel is the reference semantics of MergeDelta: a map from
// canonical endpoint pair to weight. Rebuilding via Build over the
// map's pairs is unambiguous (each pair appears once), so the expected
// graph is independent of list order.
type mergeModel struct {
	n        int
	directed bool
	weighted bool
	edges    map[[2]int32]float64
}

func newMergeModel(n int, directed, weighted bool) *mergeModel {
	return &mergeModel{n: n, directed: directed, weighted: weighted, edges: map[[2]int32]float64{}}
}

func (m *mergeModel) key(u, v int32) [2]int32 {
	if !m.directed && u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (m *mergeModel) apply(add, del []Edge) {
	for _, e := range del {
		if e.U != e.V {
			delete(m.edges, m.key(e.U, e.V))
		}
	}
	for _, e := range add {
		if e.U != e.V {
			m.edges[m.key(e.U, e.V)] = e.W
		}
	}
}

func (m *mergeModel) build(t *testing.T) *Graph {
	t.Helper()
	list := make([]Edge, 0, len(m.edges))
	for k, w := range m.edges {
		list = append(list, Edge{U: k[0], V: k[1], W: w})
	}
	g, err := Build(m.n, list, BuildOptions{Directed: m.directed, Weighted: m.weighted})
	if err != nil {
		t.Fatalf("model build: %v", err)
	}
	return g
}

func randomDelta(rng *rand.Rand, g *Graph, adds, dels int) (add, del []Edge) {
	n := int32(g.NumVertices())
	for i := 0; i < adds; i++ {
		add = append(add, Edge{
			U: rng.Int31n(n), V: rng.Int31n(n),
			W: float64(rng.Intn(16)) + 0.5,
		})
	}
	ends := g.EdgeEndpoints()
	for i := 0; i < dels && len(ends) > 0; i++ {
		e := ends[rng.Intn(len(ends))]
		if rng.Intn(2) == 0 { // deletions in either orientation
			e.U, e.V = e.V, e.U
		}
		del = append(del, e)
	}
	// Sprinkle deletions of pairs that (probably) do not exist.
	for i := 0; i < dels/2; i++ {
		del = append(del, Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
	}
	return add, del
}

// TestMergeDeltaMatchesBuild is the delta-merge tentpole property: a
// chain of merges must stay bit-identical (Offsets/Adj/EID/W) to a
// from-scratch Build of the evolving edge set, for every direction and
// weight combination and any worker count.
func TestMergeDeltaMatchesBuild(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			tag := fmt.Sprintf("dir=%v,w=%v", directed, weighted)
			rng := rand.New(rand.NewSource(7))
			const n = 90
			model := newMergeModel(n, directed, weighted)
			// Seed set.
			var seed []Edge
			for i := 0; i < 400; i++ {
				seed = append(seed, Edge{U: rng.Int31n(n), V: rng.Int31n(n), W: float64(i%9) + 1})
			}
			model.apply(seed, nil)
			g := model.build(t)
			for step := 0; step < 12; step++ {
				add, del := randomDelta(rng, g, 30, 15)
				model.apply(add, del)
				want := model.build(t)
				var ref *Graph
				for _, workers := range workerCounts {
					got, err := MergeDeltaWorkers(g, add, del, workers)
					if err != nil {
						t.Fatalf("%s step %d workers=%d: %v", tag, step, workers, err)
					}
					requireIdentical(t, fmt.Sprintf("%s/step=%d/workers=%d", tag, step, workers), got, want)
					if err := Validate(got); err != nil {
						t.Fatalf("%s step %d: invalid CSR: %v", tag, step, err)
					}
					if ref == nil {
						ref = got
					}
				}
				g = ref // chain: next delta applies to the merged graph
			}
		}
	}
}

func TestMergeDeltaSemantics(t *testing.T) {
	g := MustBuild(5, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}},
		BuildOptions{Weighted: true})

	t.Run("last-wins duplicate adds", func(t *testing.T) {
		out, err := MergeDelta(g, []Edge{{U: 3, V: 4, W: 7}, {U: 4, V: 3, W: 9}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id := out.EdgeIDOf(3, 4); id < 0 || out.W[out.Offsets[3]+1] != 9 {
			t.Fatalf("want last-wins weight 9, got graph %v weights %v", out, arcWeights(out, 3))
		}
	})
	t.Run("delete then re-add keeps pair", func(t *testing.T) {
		out, err := MergeDelta(g, []Edge{{U: 1, V: 2, W: 8}}, []Edge{{U: 2, V: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !out.HasEdge(1, 2) || out.NumEdges() != 3 {
			t.Fatalf("pair in both add and del must survive: %v", out)
		}
		if w := arcWeights(out, 1)[1]; w != 8 {
			t.Fatalf("re-add weight = %g, want 8", w)
		}
	})
	t.Run("weight update of existing pair", func(t *testing.T) {
		out, err := MergeDelta(g, []Edge{{U: 1, V: 0, W: 42}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumEdges() != 3 || arcWeights(out, 0)[0] != 42 {
			t.Fatalf("weight override failed: m=%d w=%v", out.NumEdges(), arcWeights(out, 0))
		}
	})
	t.Run("delete absent pair is a no-op", func(t *testing.T) {
		out, err := MergeDelta(g, nil, []Edge{{U: 0, V: 4}})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "noop-delete", out, g)
	})
	t.Run("empty delta copies", func(t *testing.T) {
		out, err := MergeDelta(g, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "empty-delta", out, g)
		if &out.Adj[0] == &g.Adj[0] {
			t.Fatal("merge must not alias the input snapshot")
		}
	})
	t.Run("delete everything", func(t *testing.T) {
		out, err := MergeDelta(g, nil, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if out.NumEdges() != 0 || out.NumArcs() != 0 {
			t.Fatalf("want empty graph, got %v", out)
		}
	})
	t.Run("out of range errors", func(t *testing.T) {
		if _, err := MergeDelta(g, []Edge{{U: 0, V: 9}}, nil); err == nil {
			t.Fatal("want error for out-of-range add")
		}
		if _, err := MergeDelta(g, nil, []Edge{{U: -1, V: 2}}); err == nil {
			t.Fatal("want error for out-of-range delete")
		}
	})
	t.Run("self loops dropped", func(t *testing.T) {
		out, err := MergeDelta(g, []Edge{{U: 2, V: 2, W: 5}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "self-loop-add", out, g)
	})
}

func TestMergeDeltaOnEmptyGraph(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := MustBuild(6, nil, BuildOptions{Directed: directed})
		add := []Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 0}}
		out, err := MergeDelta(g, add, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := MustBuild(6, add, BuildOptions{Directed: directed})
		requireIdentical(t, fmt.Sprintf("empty-base/dir=%v", directed), out, want)
	}
}

// MergeDelta refuses a negative, infinite or NaN weight among the
// insertions of a weighted graph, naming the edge, and stages nothing.
// Deletion weights are never read, and neither are insertion weights
// of an unweighted graph.
func TestMergeDeltaRejectsBadWeights(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := MustBuild(4, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}, BuildOptions{Weighted: true, Directed: directed})
		for _, w := range []float64{-5, math.Inf(1), math.Inf(-1), math.NaN()} {
			add := []Edge{{U: 2, V: 3, W: 1}, {U: 0, V: 3, W: w}, {U: 1, V: 3, W: w}}
			if _, err := MergeDelta(g, add, nil); err == nil ||
				!strings.Contains(err.Error(), "(0,3)") || !strings.Contains(err.Error(), "weight") {
				t.Errorf("directed=%v weight %v: err = %v, want a weight error naming (0,3)", directed, w, err)
			}
			if _, err := MergeDelta(g, nil, []Edge{{U: 0, V: 1, W: w}}); err != nil {
				t.Errorf("directed=%v weight %v on a deletion: %v", directed, w, err)
			}
			u := MustBuild(4, []Edge{{U: 0, V: 1}}, BuildOptions{Directed: directed})
			if _, err := MergeDelta(u, add, nil); err != nil {
				t.Errorf("directed=%v weight %v on an unweighted graph: %v", directed, w, err)
			}
		}
	}
}

// fuzzWeights are the weights FuzzMergeDelta draws from: ordinary ones,
// the finite extremes, and every kind MergeDelta must refuse.
var fuzzWeights = []float64{0.5, 1, 2, 7.25, 0, math.Copysign(0, -1), math.MaxFloat64,
	-1, math.Inf(1), math.Inf(-1), math.NaN()}

// FuzzMergeDelta decodes a small vertex count, a base edge set and an
// add/del batch from the input, endpoints reaching a little past both
// ends of the vertex range. MergeDelta must never panic. When it
// accepts the batch, the result must equal Build of the expected edge
// set (the base's pairs, deletions applied first, then insertions with
// the last write of a pair winning) and carry only finite non-negative
// weights; when it refuses, the batch must hold an endpoint out of
// range or, on a weighted graph, an insertion weight out of bounds.
func FuzzMergeDelta(f *testing.F) {
	f.Add([]byte{0, 6, 3, 2, 1, 1, 2, 0, 2, 3, 1, 4, 5, 2, 2, 5, 3, 3, 4, 0, 2, 3, 0})
	f.Add([]byte{3, 5, 2, 3, 1, 0, 1, 1, 1, 2, 2, 2, 3, 8, 3, 2, 9, 4, 4, 0, 1, 2, 0})
	f.Add([]byte{1, 4, 1, 1, 1, 0, 1, 3, 6, 1, 5, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		flags := next()
		directed, weighted := flags&1 != 0, flags&2 != 0
		n := next() % 17
		edges := func(count int) []Edge {
			out := make([]Edge, count)
			for i := range out {
				out[i] = Edge{U: int32(next()%20 - 2), V: int32(next()%20 - 2), W: fuzzWeights[next()%len(fuzzWeights)]}
			}
			return out
		}
		base, add, del := edges(next()%24), edges(next()%12), edges(next()%12)
		opt := BuildOptions{Directed: directed, Weighted: weighted}
		g, err := Build(n, base, opt)
		if err != nil {
			return
		}
		got, err := MergeDelta(g, add, del)
		if err != nil {
			bad := false
			for _, e := range slices.Concat(add, del) {
				bad = bad || e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n
			}
			for _, e := range add {
				bad = bad || weighted && !validWeight(e.W)
			}
			if !bad {
				t.Fatalf("refused a valid batch: %v", err)
			}
			return
		}
		model := newMergeModel(n, directed, weighted)
		model.apply(g.EdgeEndpoints(), nil)
		model.apply(add, del)
		requireIdentical(t, "fuzz", got, model.build(t))
		for a, w := range got.W {
			if !validWeight(w) {
				t.Fatalf("accepted weight %g on arc %d", w, a)
			}
		}
	})
}
