package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// rmatEdges generates R-MAT-skewed edges (a=0.57 b=0.19 c=0.19) at the
// given scale with avgDeg arcs per vertex — the builder's adversarial
// small-world workload: heavy hubs, many duplicate pairs.
func rmatEdges(scale, avgDeg int, seed int64) (int, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * avgDeg
	edges := make([]Edge, m)
	for i := range edges {
		var u, v int32
		for l := 0; l < scale; l++ {
			u <<= 1
			v <<= 1
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				v |= 1
			case r < 0.95:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		edges[i] = Edge{U: u, V: v, W: rng.Float64()}
	}
	return n, edges
}

func benchScale(b *testing.B) int {
	if s := os.Getenv("SNAP_BENCH_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > 28 {
			b.Fatalf("bad SNAP_BENCH_SCALE %q", s)
		}
		return v
	}
	if testing.Short() {
		return 14
	}
	return 18
}

// BenchmarkBuild times the parallel assembly kernel at several worker
// counts on an RMAT graph (scale set by -short: 14, default 18;
// EXPERIMENTS.md records scale 18–20 runs).
func BenchmarkBuild(b *testing.B) {
	scale := benchScale(b)
	n, edges := rmatEdges(scale, 8, 42)
	for _, opt := range []struct {
		tag string
		o   BuildOptions
	}{
		{"undirected", BuildOptions{Weighted: true}},
		{"directed", BuildOptions{Directed: true, Weighted: true}},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("rmat%d/%s/par-w%d", scale, opt.tag, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := buildParallel(n, edges, opt.o, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkUndirected compares symmetrization through the materialized
// edge list (the seed route) against the CSR-direct merge.
func BenchmarkUndirected(b *testing.B) {
	scale := benchScale(b)
	n, edges := rmatEdges(scale, 8, 43)
	g := MustBuild(n, edges, BuildOptions{Directed: true, Weighted: true})
	b.Run(fmt.Sprintf("rmat%d/edgelist", scale), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(g.NumVertices(), g.EdgeEndpoints(),
				BuildOptions{Weighted: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("rmat%d/csr-direct", scale), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Undirected(g)
		}
	})
}

// BenchmarkParseEdgeList measures text ingestion through the sharded
// byte-range scanner at several shard counts.
func BenchmarkParseEdgeList(b *testing.B) {
	scale := benchScale(b)
	n, edges := rmatEdges(scale, 8, 44)
	g := MustBuild(n, edges, BuildOptions{Weighted: true})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rmat%d/w%d", scale, workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := parseEdgeList(data, false, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
