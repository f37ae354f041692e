package community

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"snap/internal/datasets"
	"snap/internal/generate"
	"snap/internal/graph"
)

// moveBenchScale returns the RMAT scale for the community benchmarks:
// SNAP_BENCH_SCALE when set, else 14 under -short (CI smoke) and 18
// for a full run (the EXPERIMENTS.md numbers).
func moveBenchScale(tb testing.TB) int {
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

func communityRMAT(scale int) *graph.Graph {
	n := 1 << scale
	return generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1)
}

// BenchmarkLouvainRMAT times one cold Louvain call. Under -v it then
// logs one untimed call's per-level MoveStats table, once per -count
// round (the b.N == 1 probe; Go keeps every round's log).
func BenchmarkLouvainRMAT(b *testing.B) {
	g := communityRMAT(moveBenchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Louvain(g, LouvainOptions{Seed: 1})
	}
	b.StopTimer()
	if b.N == 1 {
		var st MoveStats
		c := Louvain(g, LouvainOptions{Seed: 1, Stats: &st})
		b.Logf("Louvain levels: Q %.6f, %d communities\n%s", c.Q, c.Count, moveLevelTable(&st))
	}
}

// moveLevelTable formats one run's per-level record: passes run (full
// ones among them), vertices examined (share = examined over
// passes·n, the rest being what the active set skipped), proposals and
// applied moves.
func moveLevelTable(st *MoveStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s %9s %7s %5s %10s %6s %9s %9s\n",
		"level", "n", "passes", "full", "examined", "share", "proposed", "applied")
	for lv := 0; lv < min(st.Levels, MaxMoveStatsLevels); lv++ {
		ls := &st.Level[lv]
		var full int
		var examined, proposed, applied int64
		for _, ps := range ls.Pass[:ls.Passes] {
			if ps.Full {
				full++
			}
			examined += ps.Examined
			proposed += ps.Proposed
			applied += ps.Applied
		}
		fmt.Fprintf(&sb, "%5d %9d %7d %5d %10d %6.2f %9d %9d\n", lv, ls.N, ls.Passes, full,
			examined, float64(examined)/float64(int64(ls.Passes)*ls.N), proposed, applied)
	}
	return sb.String()
}

func BenchmarkRefineRMAT(b *testing.B) {
	g := communityRMAT(moveBenchScale(b))
	start := Singletons(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Refine(g, start, 4, 1)
	}
}

func BenchmarkPLARMAT(b *testing.B) {
	g := communityRMAT(moveBenchScale(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PLA(g, PLAOptions{Seed: 1})
	}
}

func BenchmarkLouvainKarate(b *testing.B) {
	g := datasets.Karate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Louvain(g, LouvainOptions{Seed: 1})
	}
}

func BenchmarkRefineKarate(b *testing.B) {
	g := datasets.Karate()
	start := Singletons(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Refine(g, start, 16, 1)
	}
}

// The warm-workspace benchmarks hold a MoveWorkspace across
// iterations; with -benchmem they certify the zero-allocs-steady-state
// acceptance criterion.
func BenchmarkLouvainWorkspaceKarate(b *testing.B) {
	g := datasets.Karate()
	ws := new(MoveWorkspace)
	opt := LouvainOptions{Workers: 1, Seed: 1}
	ws.Louvain(g, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Louvain(g, opt)
	}
}

func BenchmarkRefineWorkspaceKarate(b *testing.B) {
	g := datasets.Karate()
	start := Singletons(g)
	ws := new(MoveWorkspace)
	ws.Refine(g, start, 16, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Refine(g, start, 16, 1, 1)
	}
}

func BenchmarkLouvainWorkspaceRMAT(b *testing.B) {
	g := communityRMAT(moveBenchScale(b))
	ws := new(MoveWorkspace)
	opt := LouvainOptions{Workers: 1, Seed: 1}
	ws.Louvain(g, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Louvain(g, opt)
	}
}
