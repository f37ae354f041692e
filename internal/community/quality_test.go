package community

import (
	"math"
	"testing"

	"snap/internal/generate"
)

func TestCoverage(t *testing.T) {
	g := twoTriangles(t)
	perfect := []int32{0, 0, 0, 1, 1, 1}
	// 6 of 7 edges intra.
	if c := Coverage(g, perfect); math.Abs(c-6.0/7) > 1e-12 {
		t.Fatalf("coverage = %g", c)
	}
	if c := Coverage(g, []int32{0, 0, 0, 0, 0, 0}); c != 1 {
		t.Fatalf("single-community coverage = %g", c)
	}
}

func TestConductance(t *testing.T) {
	g := twoTriangles(t)
	perfect := []int32{0, 0, 0, 1, 1, 1}
	cs := Conductance(g, perfect, 2)
	// Each triangle: boundary 1, volume 7 -> 1/7.
	for c, v := range cs {
		if math.Abs(v-1.0/7) > 1e-12 {
			t.Fatalf("conductance[%d] = %g, want 1/7", c, v)
		}
	}
	// Whole graph as one community: no boundary -> 0.
	if cs := Conductance(g, []int32{0, 0, 0, 0, 0, 0}, 1); cs[0] != 0 {
		t.Fatalf("closed community conductance = %g", cs[0])
	}
}

func TestNMI(t *testing.T) {
	a := []int32{0, 0, 0, 1, 1, 1}
	if v := NMI(a, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(self) = %g", v)
	}
	// Relabeled partition is still identical.
	b := []int32{1, 1, 1, 0, 0, 0}
	if v := NMI(a, b); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(relabel) = %g", v)
	}
	// Partition vs all-singletons shares no information beyond chance
	// structure; must be strictly below 1.
	c := []int32{0, 1, 2, 3, 4, 5}
	if v := NMI(a, c); v >= 1 {
		t.Fatalf("NMI(singletons) = %g", v)
	}
	// Trivial vs trivial.
	d := []int32{0, 0, 0, 0, 0, 0}
	if v := NMI(d, d); v != 1 {
		t.Fatalf("NMI(trivial) = %g", v)
	}
}

func TestNMIRecoversPlanted(t *testing.T) {
	g, truth := generate.PlantedPartition(4, 25, 0.5, 0.01, 3)
	pla := PLA(g, PLAOptions{Seed: 2})
	if v := NMI(truth, pla.Assign); v < 0.9 {
		t.Fatalf("NMI(truth, pLA) = %g, want >= 0.9", v)
	}
}
