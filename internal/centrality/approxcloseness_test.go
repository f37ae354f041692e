package centrality

import (
	"testing"

	"snap/internal/generate"
	"snap/internal/sketch"
)

// The sampled (Eppstein–Wang) closeness kernel lives in the sketch
// package; these tests check it against this package's exact kernel.

func TestApproxClosenessFullSamplingMatchesExact(t *testing.T) {
	g := generate.RMAT(200, 800, generate.DefaultRMAT(), 4)
	exact := Closeness(g, ClosenessOptions{})
	appr := sketch.Closeness(g, sketch.ClosenessOptions{Samples: g.NumVertices(), Seed: 1, Workers: 2}).Scores
	// With all pivots, the estimate equals exact closeness scaled by
	// (reached count / n); for a connected component it is exact up to
	// the n-scaling convention. Compare rank order of the top 10.
	topE := TopKVertices(exact, 10)
	topA := TopKVertices(appr, 10)
	matches := 0
	inA := map[int32]bool{}
	for _, v := range topA {
		inA[v] = true
	}
	for _, v := range topE {
		if inA[v] {
			matches++
		}
	}
	if matches < 7 {
		t.Fatalf("full-sample approx closeness agrees on only %d of top-10", matches)
	}
}

func TestApproxClosenessDeterministic(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 5)
	opt := sketch.ClosenessOptions{Samples: 16, Seed: 7, Workers: 3}
	a := sketch.Closeness(g, opt).Scores
	b := sketch.Closeness(g, opt).Scores
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("approx closeness not deterministic for fixed seed")
		}
	}
}
