package centrality

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// Golden betweenness scores, recorded at commit 5dd2b94 with Workers 1.
// Every source's dependencies are folded into the totals in source
// order whatever the worker count, so each score is the same sum in the
// same order and these hashes hold bit for bit at every Workers value.

// scoresHash is FNV-1a over the vertex score bits, then the edge score
// bits, each as little-endian uint64s.
func scoresHash(s Scores) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, xs := range [][]float64{s.Vertex, s.Edge} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// everyFifthDead kills every fifth edge, so the alive-mask paths of the
// traversals and the dependency sweeps are pinned too.
func everyFifthDead(g *graph.Graph) []bool {
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = i%5 != 0
	}
	return alive
}

func TestBetweennessGoldens(t *testing.T) {
	rmat := generate.RMAT(300, 2400, generate.DefaultRMAT(), 1)
	big := generate.RMAT(1000, 4000, generate.DefaultRMAT(), 3)
	cases := []struct {
		name string
		hash uint64
		run  func(workers int) Scores
	}{
		{"exact/rmat300", 0x64a243a52173cb8e, func(w int) Scores {
			return Betweenness(rmat, BetweennessOptions{Workers: w})
		}},
		{"exact/rmat300-masked", 0x17fa5c506019088f, func(w int) Scores {
			return Betweenness(rmat, BetweennessOptions{Workers: w, Alive: everyFifthDead(rmat)})
		}},
		{"approx/rmat1000", 0xda817386936e6656, func(w int) Scores {
			return ApproxBetweenness(big, ApproxOptions{Workers: w, Seed: 1})
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			if h := scoresHash(tc.run(workers)); h != tc.hash {
				t.Errorf("%s workers=%d: hash %#x, want %#x", tc.name, workers, h, tc.hash)
			}
		}
	}
}
