// Streaming: the paper's motivating scenario — interaction data
// arriving as a transient stream, assimilated into snapshot epochs and
// analyzed online. Each batch of edge events is buffered in a Stream
// and committed into a fresh immutable CSR epoch; each batch pins the
// new epoch lock-free, labels its components, and chains PageRank from
// the previous epoch's scores instead of recomputing from scratch (the
// serving tier's pattern). A final pinned epoch feeds the heavier
// exploratory kernels.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"math/rand"

	"snap"
)

func main() {
	const n = 5000
	const batches = 10
	const perBatch = 2000

	// The "wire": a skewed interaction stream (a few hot entities),
	// with a trickle of retractions.
	rng := rand.New(rand.NewSource(42))
	endpoint := func() int32 {
		if rng.Intn(10) < 3 {
			return int32(rng.Intn(50)) // hot entities
		}
		return int32(rng.Intn(n))
	}

	s, err := snap.NewEmptyStream(n, false, false, snap.StreamOptions{})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	fmt.Printf("%8s %10s %12s %14s %16s\n",
		"batch", "edges", "components", "largest (%)", "top PageRank")
	var recent []snap.Edge
	var pr []float64 // the last epoch's scores: the next one's warm start
	for b := 1; b <= batches; b++ {
		for i := 0; i < perBatch; i++ {
			u, v := endpoint(), endpoint()
			if u == v {
				continue
			}
			if err := s.Add(u, v); err != nil {
				panic(err)
			}
			recent = append(recent, snap.Edge{U: u, V: v})
		}
		// Occasionally retract a handful of earlier interactions.
		for i := 0; i < 20 && len(recent) > 0; i++ {
			e := recent[rng.Intn(len(recent))]
			if err := s.Delete(e.U, e.V); err != nil {
				panic(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			panic(err)
		}

		// Analytics run on the pinned epoch; PageRank warm-starts from
		// the previous epoch's scores (the first batch starts cold).
		e := s.Pin()
		g := e.Graph()
		lab := snap.ConnectedComponents(g)
		_, largest := lab.Largest()
		pr = snap.PageRankFrom(g, pr, snap.PageRankOptions{})
		top := snap.TopKVertices(pr, 1)
		fmt.Printf("%8d %10d %12d %13.1f%% %13d\n",
			b, g.NumEdges(), lab.Count,
			100*float64(largest)/float64(n), top[0])
		e.Close()
	}

	// Pin the final epoch for the heavy exploratory kernels: the
	// snapshot is immutable, so it stays valid even if the stream keeps
	// committing behind it.
	e := s.Pin()
	defer e.Close()
	g := e.Graph()
	fmt.Printf("\nsnapshot (epoch %d): %v\n", e.Seq(), g)
	st := snap.Degrees(g)
	fmt.Printf("degrees: max %d, mean %.2f\n", st.Max, st.Mean)
	top := snap.TopKVertices(pr, 5)
	fmt.Println("most influential entities (PageRank):")
	for rank, v := range top {
		fmt.Printf("  %d. entity %4d  rank %.5f  degree %d\n",
			rank+1, v, pr[v], g.Degree(v))
	}
	ok, d := snap.STConnectivity(g, top[0], top[1])
	fmt.Printf("top-2 entities connected: %v (distance %d)\n", ok, d)
}
