package graph

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(5, []Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 3}, {U: 0, V: 4, W: 1},
	}, BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// isolatedGraphs adds vertices without neighbors to g: one in the
// middle of the id range and one at its end. METIS writes each as a
// blank line.
func isolatedGraphs(t *testing.T, g *Graph) []*Graph {
	t.Helper()
	n := g.NumVertices()
	var mid []Edge
	for _, e := range g.EdgeEndpoints() {
		if e.U >= 2 {
			e.U++
		}
		if e.V >= 2 {
			e.V++
		}
		mid = append(mid, e)
	}
	opt := BuildOptions{Weighted: g.Weighted()}
	return []*Graph{g, MustBuild(n+1, mid, opt), MustBuild(n+1, g.EdgeEndpoints(), opt)}
}

func TestMETISRoundTrip(t *testing.T) {
	for _, g := range isolatedGraphs(t, smallGraph(t)) {
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip sizes: %v vs %v", g2, g)
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			a, b := g.Neighbors(v), g2.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("degree mismatch at %d", v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("adjacency mismatch at %d", v)
				}
			}
		}
		if !g2.Weighted() || g2.TotalWeight() != g.TotalWeight() {
			t.Fatalf("weights lost: %g vs %g", g2.TotalWeight(), g.TotalWeight())
		}
	}
}

func TestMETISUnweightedRoundTrip(t *testing.T) {
	g, _ := Build(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "4 3\n") {
		t.Fatalf("header: %q", buf.String()[:10])
	}
	for _, g := range isolatedGraphs(t, g) {
		buf.Reset()
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != 3 {
			t.Fatalf("round trip: %v %v", g2, err)
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if !slices.Equal(g.Neighbors(v), g2.Neighbors(v)) {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
	// A hand-written file: vertex 2 has no neighbors.
	g2, err := ReadMETIS(strings.NewReader("4 2\n3\n\n1 4\n3\n"))
	if err != nil || g2.NumVertices() != 4 || g2.NumEdges() != 2 || g2.Degree(1) != 0 {
		t.Fatalf("blank vertex line: %v %v", g2, err)
	}
}

func TestMETISRejectsDirected(t *testing.T) {
	g, _ := Build(2, []Edge{{U: 0, V: 1}}, BuildOptions{Directed: true})
	if err := WriteMETIS(&bytes.Buffer{}, g); err == nil {
		t.Fatal("directed METIS write should fail")
	}
}

func TestMETISComments(t *testing.T) {
	in := "% comment\n3 2\n% another\n2 3\n1\n1\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed: %v", g)
	}
}

func TestMETISErrors(t *testing.T) {
	if _, err := ReadMETIS(strings.NewReader("")); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := ReadMETIS(strings.NewReader("2 1 011\n2\n1\n")); err == nil {
		t.Fatal("vertex weights should be rejected")
	}
	if _, err := ReadMETIS(strings.NewReader("2 1\n9\n1\n")); err == nil {
		t.Fatal("out-of-range neighbor should fail")
	}
	// Bad headers fail before anything is sized from them.
	for _, in := range []string{
		"1 -1\n\n",
		"-1 0\n",
		"-3 -3\n",
		"4294967296 0\n",
		"1\n\n",
		"x 1\n\n",
		"1 y\n\n",
		"3 1\n2\n1\n", // vertex 3's line is missing
	} {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMETIS(%q) should fail", in)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := smallGraph(t)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip sizes: %v vs %v", g2, g)
	}
}

func TestDIMACSErrors(t *testing.T) {
	if _, err := ReadDIMACS(strings.NewReader("e 1 2\n")); err == nil {
		t.Fatal("edge before problem line should fail")
	}
	if _, err := ReadDIMACS(strings.NewReader("p edge 2 1\ne 1 9\n")); err == nil {
		t.Fatal("out-of-range endpoint should fail")
	}
	if _, err := ReadDIMACS(strings.NewReader("x nonsense\n")); err == nil {
		t.Fatal("unknown record should fail")
	}
	if _, err := ReadDIMACS(strings.NewReader("c only comments\n")); err == nil {
		t.Fatal("missing problem line should fail")
	}
	// A vertex count outside [0, MaxInt32] is its own error: ids
	// above MaxInt32 would wrap in int32.
	for _, in := range []string{"p edge -1 0\n", "p edge 2147483648 1\ne 2147483648 1\n"} {
		_, err := ReadDIMACS(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "vertex count") {
			t.Errorf("ReadDIMACS(%q): %v, want a vertex count error", in, err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := Build(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int32{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph snap {", "0 -- 1;", "fillcolor=1", "fillcolor=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	gd, _ := Build(2, []Edge{{U: 0, V: 1}}, BuildOptions{Directed: true})
	buf.Reset()
	if err := WriteDOT(&buf, gd, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph snap {") || !strings.Contains(buf.String(), "0 -> 1;") {
		t.Fatalf("directed DOT wrong:\n%s", buf.String())
	}
}

// Failure injection: malformed text inputs must return errors, never
// panic.
func TestQuickReadEdgeListNeverPanics(t *testing.T) {
	check := func(junk string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadEdgeList(strings.NewReader(junk), false)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReadMETISNeverPanics(t *testing.T) {
	check := func(junk string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadMETIS(strings.NewReader(junk))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadMETIS throws arbitrary text at ReadMETIS. It must never
// panic (nor size anything from a lying header), and any graph it
// accepts must come back unchanged through WriteMETIS and ReadMETIS:
// same vertex and edge counts, rows and weight bits.
func FuzzReadMETIS(f *testing.F) {
	for _, seed := range []string{
		"% comment\n3 2\n% another\n2 3\n1\n1\n",
		"4 2\n3\n\n1 4\n3\n",
		"3 1 001\n2 0.5\n1 0.5\n\n",
		"2 1 011\n2\n1\n",
		"1 -1\n\n",
		"2 1\n9\n1\n",
		"3 3\n2 2 3\n1 1\n1\n",
		"2 1 1\n2 NaN\n1 NaN\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMETIS(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("rereading %q: %v", buf.String(), err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() || g2.Weighted() != g.Weighted() {
			t.Fatalf("round trip: %v vs %v", g2, g)
		}
		if !slices.Equal(g2.Offsets, g.Offsets) || !slices.Equal(g2.Adj, g.Adj) {
			t.Fatalf("round trip changed the rows of %q", in)
		}
		for a := range g.Adj {
			if math.Float64bits(g2.ArcWeight(int64(a))) != math.Float64bits(g.ArcWeight(int64(a))) {
				t.Fatalf("round trip changed arc %d's weight: %g vs %g", a, g2.ArcWeight(int64(a)), g.ArcWeight(int64(a)))
			}
		}
	})
}

// FuzzReadEdgeList throws arbitrary text at ReadEdgeList. It must never
// panic, and any graph it accepts must come back unchanged through
// WriteEdgeList and ReadEdgeList: same vertex and edge counts,
// direction, weightedness, rows and arc weight bits. As with DIMACS, an "n=" header
// sizes the graph without data to check it against, so the harness
// skips inputs with an integer token above 1<<16; that bounds the
// fuzzer's allocations, not the reader.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 2\n2 0\n",
		"# snap edge list: n=6 m=2 directed\n0 1\n1 0\n",
		"# comment\n\n0 1 2.5\n1 2 NaN\n2 3 -0\n",
		"3 3\n0 1\n1 0\n0 1\n",
		"0 1 +Inf\n\t1 2  7\r\n",
		"-1 2\n",
		"0\n",
		"0 1 x\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, tok := range strings.FieldsFunc(in, func(r rune) bool { return r < '0' || r > '9' }) {
			if len(tok) > 6 {
				return
			}
			if v, _ := strconv.Atoi(tok); v > 1<<16 {
				return
			}
		}
		g, err := ReadEdgeList(strings.NewReader(in), false)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf, false)
		if err != nil {
			t.Fatalf("rereading %q: %v", buf.String(), err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() ||
			g2.Directed() != g.Directed() || g2.Weighted() != g.Weighted() {
			t.Fatalf("round trip: %v vs %v", g2, g)
		}
		if !slices.Equal(g2.Offsets, g.Offsets) || !slices.Equal(g2.Adj, g.Adj) {
			t.Fatalf("round trip changed the rows of %q", in)
		}
		for a := range g.Adj {
			if math.Float64bits(g2.ArcWeight(int64(a))) != math.Float64bits(g.ArcWeight(int64(a))) {
				t.Fatalf("round trip changed arc %d's weight: %g vs %g", a, g2.ArcWeight(int64(a)), g.ArcWeight(int64(a)))
			}
		}
	})
}
