package sketch

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// sketchBenchScale picks the RMAT scale: SNAP_BENCH_SCALE when set,
// else 14 under -short (CI smoke) and 18 for a full run (the
// EXPERIMENTS.md numbers).
func sketchBenchScale(tb testing.TB) int {
	if s := os.Getenv("SNAP_BENCH_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			tb.Fatalf("bad SNAP_BENCH_SCALE %q: %v", s, err)
		}
		return v
	}
	if testing.Short() {
		return 14
	}
	return 18
}

func sketchRMAT(scale int) *graph.Graph {
	n := 1 << scale
	return generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1)
}

// BenchmarkANF regenerates the HyperANF numbers of EXPERIMENTS.md and
// DESIGN.md §5i: the repo benchmark's two graphs and its call
// (MaxSweeps 16, default registers and seed), cold — a fresh workspace
// per call — and warm on a reused workspace. After the timed runs it
// logs one untimed call's per-sweep ANFStats table. -short shrinks the
// graphs to 2^14 vertices / 128² for CI.
//
//	go test -run '^$' -bench BenchmarkANF -benchmem -cpu 1 ./internal/sketch/
func BenchmarkANF(b *testing.B) {
	scale, side := 17, 362
	if testing.Short() {
		scale, side = 14, 128
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", generate.RMAT(1<<scale, 8<<scale, generate.DefaultRMAT(), 1)},
		{"road", generate.RoadMesh(side, side, 0.05, 1)},
	}
	opt := ANFOptions{MaxSweeps: 16}
	for _, tc := range graphs {
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				new(ANFWorkspace).Run(tc.g, opt)
			}
		})
		logged := false
		b.Run(tc.name+"/warm", func(b *testing.B) {
			ws := new(ANFWorkspace)
			ws.Run(tc.g, opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Run(tc.g, opt)
			}
			b.StopTimer()
			// Logged from the leaf because a parent benchmark's log
			// shows only under -v; once, whatever the b.N rounds.
			if !logged {
				var st ANFStats
				statsOpt := opt
				statsOpt.Stats = &st
				ws.Run(tc.g, statsOpt)
				b.Logf("HyperANF sweeps: %s\n%s", tc.name, sweepTable(&st))
				logged = true
			}
		})
	}
}

// sweepTable formats one HyperANF run's per-sweep record.
func sweepTable(st *ANFStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s %7s %10s %10s %10s %10s\n", "sweep", "mode", "rows", "unions", "words", "changed")
	for i := 0; i < min(st.Sweeps, MaxStatsSweeps); i++ {
		s := st.Sweep[i]
		mode := "dense"
		if s.Sparse {
			mode = "sparse"
		}
		fmt.Fprintf(&sb, "%5d %7s %10d %10d %10d %10d\n", i, mode, s.Rows, s.Unions, s.Words, s.Changed)
	}
	return sb.String()
}

func BenchmarkSampledCloseness(b *testing.B) {
	g := sketchRMAT(sketchBenchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closeness(g, ClosenessOptions{Samples: 64, Seed: 1})
	}
}

func BenchmarkOracleBuild(b *testing.B) {
	g := sketchRMAT(sketchBenchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOracle(g, OracleOptions{Landmarks: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleEstimate(b *testing.B) {
	g := sketchRMAT(sketchBenchScale(b))
	o, err := BuildOracle(g, OracleOptions{Landmarks: 16})
	if err != nil {
		b.Fatal(err)
	}
	n := int32(g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		s := int32(i*7919) % n
		t := int32(i*104729) % n
		lo, hi := o.Estimate(s, t)
		sink += lo + hi
	}
	_ = sink
}
