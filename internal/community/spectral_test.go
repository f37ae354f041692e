package community

import (
	"math"
	"testing"

	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/oracle"
)

func TestSpectralCommunitiesTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	c := SpectralCommunities(g, SpectralOptions{Seed: 1})
	want := 6.0/7.0 - 0.5
	if c.Count != 2 || math.Abs(c.Q-want) > 1e-9 {
		t.Fatalf("spectral: count=%d Q=%g, want 2 / %g", c.Count, c.Q, want)
	}
}

func TestSpectralCommunitiesKarate(t *testing.T) {
	g := datasets.Karate()
	c := SpectralCommunities(g, SpectralOptions{Seed: 2})
	// Newman reports ~0.393 for the refined leading-eigenvector method.
	if c.Q < 0.35 {
		t.Fatalf("spectral karate Q = %.4f, want >= 0.35", c.Q)
	}
	if q := Modularity(g, c.Assign, 1); math.Abs(q-c.Q) > 1e-9 {
		t.Fatalf("reported Q %g != recomputed %g", c.Q, q)
	}
}

func TestSpectralCommunitiesPlanted(t *testing.T) {
	g, truth := generate.PlantedPartition(4, 25, 0.5, 0.01, 7)
	truthQ := Modularity(g, truth, 1)
	c := SpectralCommunities(g, SpectralOptions{Seed: 3})
	if c.Q < truthQ*0.9 {
		t.Fatalf("spectral planted Q = %.3f, want >= 90%% of %.3f", c.Q, truthQ)
	}
}

func TestSpectralCommunitiesEdgeCases(t *testing.T) {
	// Empty graph.
	gEmpty := oracle.Ring(5)
	c := SpectralCommunities(gEmpty, SpectralOptions{Seed: 1})
	if len(c.Assign) != 5 {
		t.Fatal("assign size")
	}
	// A clique is indivisible: one community.
	k := oracle.Complete(8)
	c = SpectralCommunities(k, SpectralOptions{Seed: 1})
	if c.Count != 1 {
		t.Fatalf("K8 split into %d communities", c.Count)
	}
}
