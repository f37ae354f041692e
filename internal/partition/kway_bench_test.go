package partition

import (
	"fmt"
	"strings"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// BenchmarkKWay regenerates the partitioner numbers of EXPERIMENTS.md
// and DESIGN.md §5j: the repo benchmark's two graphs and its call
// (K 32, default seed), cold — a fresh workspace per call, which is
// what one snap.Partition in a session costs — and warm on a reused
// workspace. After the timed runs it logs one untimed call's per-level
// Stats table. -short shrinks the graphs to 2^14 vertices / 128² for CI.
//
//	go test -run '^$' -bench BenchmarkKWay -benchmem -cpu 1 ./internal/partition/
func BenchmarkKWay(b *testing.B) {
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
	const k = 32
	for _, tc := range graphs {
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := new(Workspace).KWay(tc.g, k, MultilevelOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		logged := false
		b.Run(tc.name+"/warm", func(b *testing.B) {
			ws := AcquireWorkspace()
			defer ReleaseWorkspace(ws)
			if _, err := ws.KWay(tc.g, k, MultilevelOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.KWay(tc.g, k, MultilevelOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Logged from the leaf because a parent benchmark's log
			// shows only under -v; once, whatever the b.N rounds.
			if !logged {
				var st Stats
				if _, err := ws.KWay(tc.g, k, MultilevelOptions{Stats: &st}); err != nil {
					b.Fatal(err)
				}
				b.Logf("k-way levels: %s\n%s", tc.name, levelTable(&st))
				logged = true
			}
		})
	}
}

// levelTable formats one run's per-level record: what every level
// shrank to, and what refining it cost (share = evaluated over
// passes·n, the rest being what the active-set rule skipped).
func levelTable(st *Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s %10s %10s %8s %8s %7s %12s %7s %10s\n",
		"level", "n", "arcs", "shrink", "arcs/n", "passes", "evaluated", "share", "moves")
	for li := 0; li < min(st.Levels, MaxStatsLevels); li++ {
		ls := st.Level[li]
		shrink := "-"
		if ls.CoarseN > 0 {
			shrink = fmt.Sprintf("%.3f", float64(ls.CoarseN)/float64(ls.N))
		}
		fmt.Fprintf(&sb, "%5d %10d %10d %8s %8.1f %7d %12d %7.2f %10d\n",
			li, ls.N, ls.Arcs, shrink, float64(ls.Arcs)/float64(ls.N), ls.Passes,
			ls.Evaluated, float64(ls.Evaluated)/float64(int64(ls.Passes)*ls.N), ls.Moves)
	}
	return sb.String()
}
