package sssp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// tieW draws weights from {1, 2}, so most reached vertices have several
// certifying tails and the parent tie-break decides almost every Parent.
func tieW(rng *rand.Rand) float64 { return float64(1 + rng.Intn(2)) }

// resultHash is FNV-1a over the Dist bits as little-endian uint64s,
// then Parent as little-endian uint32s.
func resultHash(h hash.Hash, dist []float64, parent []int32) {
	var b [8]byte
	for _, d := range dist {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		h.Write(b[:])
	}
	for _, p := range parent {
		binary.LittleEndian.PutUint32(b[:4], uint32(p))
		h.Write(b[:4])
	}
}

// Golden hashes recorded at commit 2dd59ff, where each bucket still ran
// separate light and heavy phases over a light/heavy copy of the arcs.

// TestDeltaSteppingGoldens pins Dist and Parent bit for bit on the
// benchmark's graph families at the default delta: three sources per
// graph hashed in order, at Workers 1, 2 and 4. Dist is Dijkstra's
// fixed point and Parent the smallest certifying tail, and a weighted
// run relaxes on one goroutine at every worker count, so one hash per
// graph holds for all three; a hash that moves at one worker count
// only means Workers reached the weighted path.
func TestDeltaSteppingGoldens(t *testing.T) {
	rmat := generate.RMAT(1<<12, 8<<12, generate.DefaultRMAT(), 1)
	directed := graph.MustBuild(rmat.NumVertices(), rmat.EdgeEndpoints(), graph.BuildOptions{Directed: true})
	cases := []struct {
		name string
		g    *graph.Graph
		hash uint64
	}{
		{"rmat12/w100", generate.RandomWeights(rmat, 100, 2), 0x1c46ebd499c6a6bd},
		{"road64/w100", generate.RandomWeights(generate.RoadMesh(64, 64, 0.05, 1), 100, 2), 0x3e17042e06c66b14},
		{"rmat12-directed/w100", generate.RandomWeights(directed, 100, 3), 0x728673b7c4536933},
		{"rmat12/w1-2", reweight(rmat, tieW, 4), 0x7eaad342ff4fdabc},
	}
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	for _, tc := range cases {
		n := int32(tc.g.NumVertices())
		for _, workers := range []int{1, 2, 4} {
			h := fnv.New64a()
			for _, src := range []int32{0, n / 3, 2 * n / 3} {
				ws.Run(tc.g, src, DeltaSteppingOptions{Workers: workers})
				resultHash(h, ws.Dist(), ws.parent)
			}
			if got := h.Sum64(); got != tc.hash {
				t.Errorf("%s workers=%d: hash %#x, want %#x", tc.name, workers, got, tc.hash)
			}
		}
	}
}
