package community

import (
	"math"
	"testing"

	"snap/internal/datasets"
	"snap/internal/generate"
)

func TestLouvainTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	c := Louvain(g, LouvainOptions{Seed: 1})
	want := 6.0/7.0 - 0.5
	if c.Count != 2 || math.Abs(c.Q-want) > 1e-9 {
		t.Fatalf("louvain: count=%d Q=%g, want 2 / %g", c.Count, c.Q, want)
	}
}

func TestLouvainKarate(t *testing.T) {
	g := datasets.Karate()
	c := Louvain(g, LouvainOptions{Seed: 1})
	if c.Q < 0.40 {
		t.Fatalf("louvain karate Q = %.4f, want >= 0.40", c.Q)
	}
	if q := Modularity(g, c.Assign, 1); math.Abs(q-c.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", c.Q, q)
	}
}

func TestLouvainPlantedRecovery(t *testing.T) {
	g, truth := generate.PlantedPartition(5, 40, 0.4, 0.005, 8)
	c := Louvain(g, LouvainOptions{Seed: 2})
	truthQ := Modularity(g, truth, 1)
	if c.Q < truthQ*0.95 {
		t.Fatalf("louvain planted Q = %.3f, want >= 95%% of %.3f", c.Q, truthQ)
	}
	if v := NMI(truth, c.Assign); v < 0.9 {
		t.Fatalf("louvain NMI = %.3f", v)
	}
}

func TestLouvainAtLeastAsGoodAsPMAOnSurrogates(t *testing.T) {
	// Louvain is the modern reference; it should match or beat CNM-
	// style agglomeration on community-structured graphs.
	net, _ := datasets.ByLabel("E-mail")
	g := net.Build(0.5)
	lv := Louvain(g, LouvainOptions{Seed: 3})
	pma, _ := PMA(g, PMAOptions{StopWhenNegative: true})
	if lv.Q < pma.Q-0.05 {
		t.Fatalf("louvain Q=%.3f clearly below pMA Q=%.3f", lv.Q, pma.Q)
	}
}
