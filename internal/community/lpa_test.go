package community

import (
	"testing"

	"snap/internal/generate"
	"snap/internal/oracle"
)

func TestLabelPropagationTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	c := LabelPropagation(g, 0, 3)
	// LPA should find the two triangles (occasionally it collapses to
	// one community on tiny graphs; both are acceptable stable states,
	// but with this seed it should find two).
	if c.Count < 1 || c.Count > 3 {
		t.Fatalf("LPA count = %d", c.Count)
	}
	if c.Count == 2 && c.Q < 0.3 {
		t.Fatalf("LPA found 2 communities with Q=%.3f", c.Q)
	}
}

func TestLabelPropagationPlanted(t *testing.T) {
	g, truth := generate.PlantedPartition(4, 40, 0.5, 0.002, 6)
	c := LabelPropagation(g, 0, 2)
	if v := NMI(truth, c.Assign); v < 0.8 {
		t.Fatalf("LPA NMI = %.3f on a strong planted partition", v)
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	g, _ := generate.PlantedPartition(3, 30, 0.4, 0.01, 2)
	a := LabelPropagation(g, 0, 9)
	b := LabelPropagation(g, 0, 9)
	if a.Count != b.Count || a.Q != b.Q {
		t.Fatalf("LPA not deterministic: %v vs %v", a, b)
	}
}

func TestLabelPropagationEdgeless(t *testing.T) {
	g := oracle.Ring(1) // single vertex, zero edges after self-loop drop
	c := LabelPropagation(g, 0, 1)
	if len(c.Assign) != 1 {
		t.Fatal("size")
	}
}
