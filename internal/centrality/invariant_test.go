package centrality

import (
	"math"
	"testing"
	"testing/quick"

	"snap/internal/bfs"
	"snap/internal/components"
	"snap/internal/generate"
	"snap/internal/oracle"
)

// On a tree, the edge betweenness of every edge equals s*(n-s), where s
// and n-s are the sizes of the two components its removal creates —
// a closed form that validates the whole Brandes pipeline.
func TestTreeEdgeBetweennessClosedForm(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := oracle.Tree(60, int64(trial))
		n := g.NumVertices()
		scores := Betweenness(g, BetweennessOptions{ComputeEdge: true}).Edge
		for eid := 0; eid < g.NumEdges(); eid++ {
			alive := make([]bool, g.NumEdges())
			for i := range alive {
				alive[i] = i != eid
			}
			lab := components.Connected(g, alive)
			sizes := lab.Sizes()
			if len(sizes) != 2 {
				t.Fatalf("tree edge removal must give 2 components, got %d", len(sizes))
			}
			want := float64(sizes[0]) * float64(sizes[1])
			if math.Abs(scores[eid]-want) > 1e-9 {
				t.Fatalf("trial %d edge %d: EBC = %g, want %g (s=%d, n-s=%d)",
					trial, eid, scores[eid], want, sizes[0], n-sizes[0])
			}
		}
	}
}

// Total vertex betweenness equals the number of "interior visits" of
// all shortest paths: sum_v BC(v) = sum_{s!=t} (d(s,t) - 1) * [s,t
// connected] / (2 for undirected double counting handled internally).
func TestBetweennessSumIdentity(t *testing.T) {
	check := func(seed int64) bool {
		g := generate.ErdosRenyi(40, 80, seed)
		scores := Betweenness(g, BetweennessOptions{ComputeVertex: true}).Vertex
		var total float64
		for _, s := range scores {
			total += s
		}
		// Count sum over unordered connected pairs of (d(s,t) − 1).
		var want float64
		for s := int32(0); int(s) < g.NumVertices(); s++ {
			r := bfs.Serial(g, s, nil)
			for v, d := range r.Dist {
				if d > 0 && int32(v) > s {
					want += float64(d - 1)
				}
			}
		}
		return math.Abs(total-want) < 1e-6
	}
	if err := quick.Check(func(x uint8) bool { return check(int64(x)) },
		&quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Closeness on vertex-transitive graphs is constant.
func TestClosenessSymmetryOnRing(t *testing.T) {
	g := oracle.Ring(17)
	cc := Closeness(g, ClosenessOptions{})
	for v := 1; v < len(cc); v++ {
		if math.Abs(cc[v]-cc[0]) > 1e-12 {
			t.Fatalf("ring closeness not uniform: %g vs %g", cc[v], cc[0])
		}
	}
}
