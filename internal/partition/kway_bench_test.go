package partition

import (
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// BenchmarkKWay regenerates the partitioner numbers of EXPERIMENTS.md
// and DESIGN.md §5j: the repo benchmark's two graphs and its call
// (K 32, default seed), cold — a fresh workspace per call, which is
// what one snap.Partition in a session costs — and warm on a reused
// workspace. -short shrinks the graphs to 2^14 vertices / 128² for CI.
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
		})
	}
}
