package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(3, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildTriangle(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.NumArcs() != 6 {
		t.Fatalf("sizes wrong: %v", g)
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsBadWeights: Validate (the SNP2 container's
// validating load) refuses a negative, infinite or NaN weight in a
// graph it did not build. Build refuses one too, so the bad weight is
// written into the built graph's arcs.
func TestValidateRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{-5, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, directed := range []bool{false, true} {
			g, err := Build(3, []Edge{{0, 1, 2}, {1, 2, 1}}, BuildOptions{Weighted: true, Directed: directed})
			if err != nil {
				t.Fatal(err)
			}
			for a := g.Offsets[1]; a < g.Offsets[3]; a++ {
				if g.Adj[a] == 1 || g.Adj[a] == 2 {
					g.W[a] = w
				}
			}
			if err := Validate(g); err == nil || !strings.Contains(err.Error(), "weight") {
				t.Errorf("weight %v directed=%v: Validate = %v, want a weight error", w, directed, err)
			}
		}
	}
	g, err := Build(3, []Edge{{0, 1, 0}, {1, 2, math.MaxFloat64}}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g); err != nil {
		t.Errorf("weights 0 and MaxFloat64: %v", err)
	}
}

// Build with Weighted refuses a negative, infinite or NaN weight and
// names the earliest offending edge at every worker count, whichever
// check it fails; without Weighted the weights are dropped unread.
func TestBuildRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{-5, math.Inf(1), math.Inf(-1), math.NaN()} {
		edges := []Edge{{0, 1, 1}, {1, 2, w}, {2, 3, 1}, {0, 3, w}, {0, 9, 1}}
		for _, directed := range []bool{false, true} {
			for workers := 1; workers <= 4; workers++ {
				_, err := buildParallel(4, edges, BuildOptions{Weighted: true, Directed: directed}, workers)
				if err == nil || !strings.Contains(err.Error(), "(1,2)") || !strings.Contains(err.Error(), "weight") {
					t.Errorf("weight %v directed=%v workers=%d: err = %v, want a weight error naming (1,2)",
						w, directed, workers, err)
				}
			}
		}
		if _, err := Build(4, edges[:4], BuildOptions{}); err != nil {
			t.Errorf("weight %v unweighted: %v", w, err)
		}
	}
	_, err := buildParallel(4, []Edge{{0, 9, 1}, {1, 2, -1}}, BuildOptions{Weighted: true}, 2)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("range error first: err = %v", err)
	}
	g, err := Build(3, []Edge{{0, 1, 0}, {1, 2, math.MaxFloat64}}, BuildOptions{Weighted: true})
	if err != nil || g.NumEdges() != 2 {
		t.Errorf("weights 0 and MaxFloat64: %v", err)
	}
}

func TestBuildDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := Build(3, []Edge{{0, 1, 1}, {1, 0, 1}, {2, 2, 1}, {0, 1, 1}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dedup + self-loop drop)", g.NumEdges())
	}
}

func TestBuildAllowMulti(t *testing.T) {
	g, err := Build(2, []Edge{{0, 1, 1}, {0, 1, 1}}, BuildOptions{AllowMulti: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 with AllowMulti", g.NumEdges())
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 5, 1}}, BuildOptions{}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := Build(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("expected negative-n error")
	}
}

func TestDirectedBuild(t *testing.T) {
	g, err := Build(3, []Edge{{0, 1, 1}, {1, 2, 1}}, BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumEdges() != 2 || g.NumArcs() != 2 {
		t.Fatalf("directed sizes wrong: %v", g)
	}
	if g.HasEdge(1, 0) {
		t.Fatal("reverse arc should not exist")
	}
	und := Undirected(g)
	if und.Directed() || und.NumEdges() != 2 || und.NumArcs() != 4 {
		t.Fatalf("symmetrize wrong: %v", und)
	}
}

func TestEdgeIDsSharedAcrossArcs(t *testing.T) {
	g := triangle(t)
	for u := int32(0); u < 3; u++ {
		for _, v := range g.Neighbors(u) {
			if g.EdgeIDOf(u, v) != g.EdgeIDOf(v, u) {
				t.Fatalf("edge id mismatch on (%d,%d)", u, v)
			}
		}
	}
	if g.EdgeIDOf(0, 0) != -1 {
		t.Fatal("EdgeIDOf for absent arc should be -1")
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := triangle(t)
	eps := g.EdgeEndpoints()
	if len(eps) != 3 {
		t.Fatalf("got %d endpoints", len(eps))
	}
	for id, e := range eps {
		if g.EdgeIDOf(e.U, e.V) != int32(id) {
			t.Fatalf("endpoint %d inconsistent", id)
		}
	}
}

// totalWeight sums the edge weights of g (m when unweighted).
func totalWeight(g *Graph) float64 {
	if !g.Weighted() {
		return float64(g.NumEdges())
	}
	var s float64
	for _, e := range g.EdgeEndpoints() {
		s += e.W
	}
	return s
}

// arcWeights returns the weights of v's arcs, parallel to
// Neighbors(v), or nil when g is unweighted.
func arcWeights(g *Graph, v int32) []float64 {
	if !g.Weighted() {
		return nil
	}
	return g.W[g.Offsets[v]:g.Offsets[v+1]]
}

func TestWeightedBuild(t *testing.T) {
	g, err := Build(2, []Edge{{0, 1, 2.5}}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || totalWeight(g) != 2.5 {
		t.Fatalf("weight wrong: %v", totalWeight(g))
	}
	if w := arcWeights(g, 0); len(w) != 1 || w[0] != 2.5 {
		t.Fatalf("vertex 0's arc weights = %v", w)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 3 {
		t.Fatalf("round trip: %v", g2)
	}
}

// TestEdgeListRoundTripWeightedNoEdges: weightedness travels in the
// header, so a weighted graph with no edge lines reads back weighted,
// and an unweighted header stays byte-identical to the old format.
func TestEdgeListRoundTripWeightedNoEdges(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		g, err := Build(1, nil, BuildOptions{Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !weighted && buf.String() != "# snap edge list: n=1 m=0 undirected\n" {
			t.Fatalf("unweighted header changed: %q", buf.String())
		}
		g2, err := ReadEdgeList(&buf, false)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != 1 || g2.NumEdges() != 0 || g2.Weighted() != weighted {
			t.Fatalf("weighted=%v: read back n=%d m=%d weighted=%v",
				weighted, g2.NumVertices(), g2.NumEdges(), g2.Weighted())
		}
	}
	// "unweighted" does not match "weighted", as "undirected" does not
	// match "directed".
	g, err := ReadEdgeList(strings.NewReader("# n=2 unweighted\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("an unweighted header read as weighted")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n"), false); err == nil {
		t.Fatal("want parse error for single field")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Fatal("want parse error for non-numeric")
	}
	// Vertex counts past int32 ids, from the header and from the
	// largest id, are errors rather than multi-GB allocations.
	if _, err := ReadEdgeList(strings.NewReader("# n=3000000000\n0 1\n"), false); err == nil {
		t.Fatal("want error for header n beyond int32 ids")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 2147483647\n"), false); err == nil {
		t.Fatal("want error for id 2^31-1, which makes n = 2^31")
	}
}

func TestReadEdgeListHeaderN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# snap edge list: n=10 m=1 undirected\n0 1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("header n ignored: n=%d", g.NumVertices())
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Path 0-1-2-3; induce {1, 2, 3} -> path of length 2.
	g, _ := Build(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}, BuildOptions{})
	sub, orig, err := InducedSubgraph(g, []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced: %v", sub)
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Fatalf("orig map wrong: %v", orig)
	}
	if _, _, err := InducedSubgraph(g, []int32{1, 1}); err == nil {
		t.Fatal("want duplicate-vertex error")
	}
	if _, _, err := InducedSubgraph(g, []int32{9}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestQuickBuildValidates(t *testing.T) {
	check := func(raw []uint16, directed bool) bool {
		n := 40
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: int32(raw[i] % uint16(n)),
				V: int32(raw[i+1] % uint16(n)),
				W: 1,
			})
		}
		g, err := Build(n, edges, BuildOptions{Directed: directed})
		if err != nil {
			return false
		}
		return Validate(g) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSum(t *testing.T) {
	// Sum of degrees equals 2m for undirected graphs.
	check := func(raw []uint16) bool {
		n := 30
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: int32(raw[i] % uint16(n)), V: int32(raw[i+1] % uint16(n))})
		}
		g, err := Build(n, edges, BuildOptions{})
		if err != nil {
			return false
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(int32(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicAddDelete(t *testing.T) {
	d := NewDynamic(5, false)
	if added, err := d.AddEdge(0, 1); err != nil || !added {
		t.Fatalf("AddEdge: %v %v", added, err)
	}
	if added, _ := d.AddEdge(1, 0); added {
		t.Fatal("duplicate edge added")
	}
	if !d.HasEdge(0, 1) || !d.HasEdge(1, 0) {
		t.Fatal("symmetry broken")
	}
	if del, _ := d.DeleteEdge(0, 1); !del {
		t.Fatal("delete failed")
	}
	if d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Fatal("delete left residue")
	}
	if _, err := d.AddEdge(0, 0); err == nil {
		t.Fatal("self loop should error")
	}
	if _, err := d.AddEdge(0, 99); err == nil {
		t.Fatal("out of range should error")
	}
}

func TestDynamicTreapMigration(t *testing.T) {
	d := NewDynamic(200, false)
	d.SetTreapThreshold(8)
	// Vertex 0 becomes high degree and must migrate to a treap.
	for v := int32(1); v <= 100; v++ {
		if _, err := d.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if d.big[0] == nil {
		t.Fatal("high-degree vertex did not migrate to treap")
	}
	got := 0
	for v := int32(0); v <= 101; v++ {
		if d.big[0].Contains(v) {
			got++
		}
	}
	if got != 100 {
		t.Fatalf("treap holds %d of vertex 0's neighbours, want 100", got)
	}
	for v := int32(1); v <= 100; v++ {
		if !d.HasEdge(0, v) || !d.HasEdge(v, 0) {
			t.Fatalf("edge (0,%d) lost in the migration", v)
		}
	}
	// Deletion still works post-migration.
	if del, _ := d.DeleteEdge(0, 50); !del {
		t.Fatal("treap delete failed")
	}
	if d.HasEdge(0, 50) {
		t.Fatal("edge survived deletion")
	}
}

func TestQuickDynamicMatchesOracle(t *testing.T) {
	check := func(ops []uint32) bool {
		n := 24
		d := NewDynamic(n, false)
		d.SetTreapThreshold(4) // force treap paths
		oracle := map[[2]int32]bool{}
		for _, op := range ops {
			u := int32(op % uint32(n))
			v := int32((op / 7) % uint32(n))
			if u == v {
				continue
			}
			key := [2]int32{min32(u, v), max32(u, v)}
			if op%2 == 0 {
				added, err := d.AddEdge(u, v)
				if err != nil || added == oracle[key] {
					return false
				}
				oracle[key] = true
			} else {
				del, err := d.DeleteEdge(u, v)
				if err != nil || del != oracle[key] {
					return false
				}
				delete(oracle, key)
			}
		}
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				if u != v && d.HasEdge(u, v) != oracle[[2]int32{min32(u, v), max32(u, v)}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
