package graph

import (
	"bytes"
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

func TestMETISRoundTrip(t *testing.T) {
	g := smallGraph(t)
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

func TestMETISUnweightedRoundTrip(t *testing.T) {
	g, _ := Build(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, BuildOptions{})
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "4 3\n") {
		t.Fatalf("header: %q", buf.String()[:10])
	}
	g2, err := ReadMETIS(&buf)
	if err != nil || g2.NumEdges() != 3 {
		t.Fatalf("round trip: %v %v", g2, err)
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

func TestAttributes(t *testing.T) {
	g := smallGraph(t)
	at := NewAttributes(g)
	if err := at.SetVertexString("name", 0, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := at.SetVertexFloat("score", 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := at.SetVertexInt("age", 2, 30); err != nil {
		t.Fatal(err)
	}
	if err := at.SetEdgeString("kind", 0, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := at.SetEdgeFloat("strength", 1, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := at.SetEdgeInt("year", 2, 2008); err != nil {
		t.Fatal(err)
	}
	if at.VertexString("name", 0) != "alice" || at.VertexString("name", 1) != "" {
		t.Fatal("vertex string wrong")
	}
	if at.VertexFloat("score", 1) != 2.5 || at.VertexInt("age", 2) != 30 {
		t.Fatal("vertex numeric wrong")
	}
	if at.EdgeString("kind", 0) != "friend" || at.EdgeFloat("strength", 1) != 0.7 || at.EdgeInt("year", 2) != 2008 {
		t.Fatal("edge attributes wrong")
	}
	if err := at.SetVertexString("name", 99, "x"); err == nil {
		t.Fatal("out-of-range vertex should fail")
	}
	if err := at.SetEdgeInt("year", -1, 0); err == nil {
		t.Fatal("out-of-range edge should fail")
	}
	s, f, i := at.VertexColumns()
	if len(s) != 1 || len(f) != 1 || len(i) != 1 {
		t.Fatalf("columns: %v %v %v", s, f, i)
	}
	sel := at.SelectVertices(func(v int32) bool { return at.VertexInt("age", v) > 0 })
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("select: %v", sel)
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
