package community

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/graph"
)

// Golden clusterings of the move engine, recorded at commit 3643b0f;
// rmat10 re-recorded when local moving began pruning to the active set
// (Louvain Q 0.31152 → 0.31451, Refine Q 0.30153 → 0.30185; karate
// and planted kept their hashes). Louvain and Refine promise the same
// clustering bit for bit for a given (graph, seed) at every worker
// count, so a change to local moving or contraction that moves one of
// these hashes changed the output, not just the speed.
var moveGoldens = map[string]struct{ louvain, refine uint64 }{
	"karate":  {louvain: 0x1075f619ab588980, refine: 0x9daee92bcb4a454f},
	"planted": {louvain: 0xab0d36e6fc559dc3, refine: 0xab0d36e6fc559dc3},
	"rmat10":  {louvain: 0xffd78e3136b4d92e, refine: 0x505739a9ec20bddd},
}

// clusteringHash is FNV-1a over Assign as little-endian int32s, then the
// bits of Q, then Count.
func clusteringHash(c Clustering) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range c.Assign {
		binary.LittleEndian.PutUint32(b[:4], uint32(a))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Q))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(c.Count))
	h.Write(b[:])
	return h.Sum64()
}

// One workspace serves every graph at every worker count in turn, so
// the test also proves that nothing a run leaves behind reaches the
// next one.
func TestMoveGoldenClusterings(t *testing.T) {
	ws := new(MoveWorkspace)
	for name, g := range moveTestGraphs(t) {
		want := moveGoldens[name]
		start, _ := PMA(g, PMAOptions{StopWhenNegative: true})
		for _, workers := range []int{1, 2, 4} {
			if h := clusteringHash(ws.Louvain(g, LouvainOptions{Workers: workers, Seed: 1})); h != want.louvain {
				t.Errorf("%s workers=%d: Louvain hash %#x, want %#x", name, workers, h, want.louvain)
			}
			if h := clusteringHash(ws.Refine(g, start, 16, 1, workers)); h != want.refine {
				t.Errorf("%s workers=%d: Refine hash %#x, want %#x", name, workers, h, want.refine)
			}
		}
	}
}

// Golden trajectories of the divisive engine, recorded at commit
// 7b352ee with Workers 1. Betweenness folds its sources in source
// order, so they hold bit for bit at every worker count. The hash
// covers the best clustering's Assign and Count and the dendrogram's
// removal sequence, so a change that reorders one removal moves it. Q
// is not hashed; it is checked against Modularity instead.
var divisiveGoldens = map[string]uint64{
	"pbd/karate":  0x8df2affc6946e7e6,
	"pbd/planted": 0x4f83a9f3a625c750,
	"pbd/rmat300": 0x991225f1269424bb,
	"gn/karate":   0x3ade1a5c088e05a7,
}

// divisiveHash is FNV-1a over Assign as little-endian int32s, then
// Count, then every event's EdgeID.
func divisiveHash(c Clustering, d *Dendrogram) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range c.Assign {
		binary.LittleEndian.PutUint32(b[:4], uint32(a))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(c.Count))
	h.Write(b[:])
	for _, ev := range d.Events {
		binary.LittleEndian.PutUint32(b[:4], uint32(ev.EdgeID))
		h.Write(b[:4])
	}
	return h.Sum64()
}

func TestDivisiveGoldens(t *testing.T) {
	graphs := moveTestGraphs(t)
	karate, planted := graphs["karate"], graphs["planted"]
	rmat := generate.RMAT(300, 1200, generate.DefaultRMAT(), 1)
	runs := []struct {
		name string
		g    *graph.Graph
		run  func(g *graph.Graph, workers int) (Clustering, *Dendrogram)
	}{
		{"pbd/karate", karate, func(g *graph.Graph, w int) (Clustering, *Dendrogram) {
			return PBD(g, PBDOptions{Workers: w, Seed: 1})
		}},
		{"pbd/planted", planted, func(g *graph.Graph, w int) (Clustering, *Dendrogram) {
			return PBD(g, PBDOptions{Workers: w, Seed: 1})
		}},
		{"pbd/rmat300", rmat, func(g *graph.Graph, w int) (Clustering, *Dendrogram) {
			return PBD(g, PBDOptions{Workers: w, Seed: 1, SwitchThreshold: 64})
		}},
		{"gn/karate", karate, func(g *graph.Graph, w int) (Clustering, *Dendrogram) {
			return GirvanNewman(g, GNOptions{Workers: w})
		}},
	}
	for _, r := range runs {
		for _, workers := range []int{1, 2, 4} {
			best, dend := r.run(r.g, workers)
			if h := divisiveHash(best, dend); h != divisiveGoldens[r.name] {
				t.Errorf("%s workers=%d: hash %#x, want %#x", r.name, workers, h, divisiveGoldens[r.name])
			}
			if q := Modularity(r.g, best.Assign, 1); math.Abs(q-best.Q) > 1e-12 {
				t.Errorf("%s workers=%d: reported Q %g, Modularity %g", r.name, workers, best.Q, q)
			}
		}
	}
}

// Golden leading-eigenvector clusterings (seed 1) on the shared Lanczos
// solver. powerQ is the modularity the method reached at commit 9fd2ea9
// with its own shifted power iteration (500 steps per split); karate
// and planted kept their hashes across the move, E-mail gained. A
// re-recorded hash must not fall more than 0.002 below powerQ.
var spectralGoldens = []struct {
	name   string
	g      func() *graph.Graph
	hash   uint64
	powerQ float64
}{
	{name: "karate", g: datasets.Karate, hash: 0x12748946bb91aeca, powerQ: 0.4188},
	{name: "planted", g: func() *graph.Graph {
		g, _ := generate.PlantedPartition(4, 25, 0.5, 0.01, 7)
		return g
	}, hash: 0x226fbaff562af72d, powerQ: 0.6871},
	{name: "email", g: func() *graph.Graph {
		net, err := datasets.ByLabel("E-mail")
		if err != nil {
			panic(err)
		}
		return net.Build(1)
	}, hash: 0x67514f82a5a28ded, powerQ: 0.5312},
}

func TestSpectralGoldens(t *testing.T) {
	for _, tc := range spectralGoldens {
		g := tc.g()
		c := SpectralCommunities(g, SpectralOptions{Seed: 1})
		if h := clusteringHash(c); h != tc.hash {
			t.Errorf("%s: hash %#x (Q %.17g, count %d), want %#x", tc.name, h, c.Q, c.Count, tc.hash)
		}
		if c.Q < tc.powerQ-0.002 {
			t.Errorf("%s: Q %.4f, more than 0.002 below %.4f", tc.name, c.Q, tc.powerQ)
		}
		if q := Modularity(g, c.Assign, 1); math.Abs(q-c.Q) > 1e-12 {
			t.Errorf("%s: reported Q %g, Modularity %g", tc.name, c.Q, q)
		}
	}
}

// Golden agglomerative clusterings, recorded at commit acc06e0 with
// Workers 1 before any change that touches pMA or pLA; pla/email
// re-recorded when its final Refine polish began pruning to the active
// set (Q 0.53684 → 0.53745). pMA's parallel ΔQ updates
// (ParallelThreshold 16 makes E-mail's larger merges take that arm)
// and pLA's concurrent component aggregation must not change the
// answer, so every worker count must reproduce these hashes of Assign,
// the Q bits and Count.
var agglomerativeGoldens = map[string]uint64{
	"pma/karate": 0xb2d97f428c8b4ef7,
	"pma/email":  0xe485fc91e25751da,
	"pla/karate": 0x7d5f5fc3748a115e,
	"pla/email":  0xf4b89a94d15500eb,
}

func TestAgglomerativeGoldens(t *testing.T) {
	karate := datasets.Karate()
	net, err := datasets.ByLabel("E-mail")
	if err != nil {
		t.Fatal(err)
	}
	email := net.Build(1)
	runs := []struct {
		name string
		g    *graph.Graph
		run  func(g *graph.Graph, workers int) Clustering
	}{
		{"pma/karate", karate, func(g *graph.Graph, w int) Clustering {
			c, _ := PMA(g, PMAOptions{Workers: w, StopWhenNegative: true})
			return c
		}},
		{"pma/email", email, func(g *graph.Graph, w int) Clustering {
			c, _ := PMA(g, PMAOptions{Workers: w, StopWhenNegative: true, ParallelThreshold: 16})
			return c
		}},
		{"pla/karate", karate, func(g *graph.Graph, w int) Clustering {
			return PLA(g, PLAOptions{Workers: w, Seed: 1})
		}},
		{"pla/email", email, func(g *graph.Graph, w int) Clustering {
			return PLA(g, PLAOptions{Workers: w, Seed: 1})
		}},
	}
	for _, r := range runs {
		for _, workers := range []int{1, 2, 4} {
			c := r.run(r.g, workers)
			if h := clusteringHash(c); h != agglomerativeGoldens[r.name] {
				t.Errorf("%s workers=%d: hash %#x (Q %.17g, count %d), want %#x", r.name, workers, h, c.Q, c.Count, agglomerativeGoldens[r.name])
			}
		}
	}
}
