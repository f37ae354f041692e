package bfs

import (
	"testing"

	"snap/internal/frontier"
	"snap/internal/generate"
)

// TestParallelCancel pins the level-boundary cancellation hook: a
// Cancel that trips after k polls leaves exactly the first k levels
// settled (every vertex at depth < k has its serial-BFS distance,
// nothing deeper is labeled), and a hook that never trips changes
// nothing.
func TestParallelCancel(t *testing.T) {
	g := generate.RMAT(1<<10, 1<<12, generate.DefaultRMAT(), 11)
	src := int32(3)
	want := Serial(g, src, nil)

	for _, run := range []struct {
		name string
		bfs  func(cancel func() bool) Result
	}{
		{"topdown", func(cancel func() bool) Result {
			ws := AcquireWorkspace(g.NumVertices())
			defer ReleaseWorkspace(ws)
			ws.RunOptions(g, src, frontier.Options{Workers: 2, MaxDepth: -1, Cancel: cancel})
			return ws.Export()
		}},
		{"diropt", func(cancel func() bool) Result {
			return directionOptimizing(g, src, frontier.Options{Workers: 2, Cancel: cancel})
		}},
	} {
		never := run.bfs(func() bool { return false })
		for v := range want.Dist {
			if never.Dist[v] != want.Dist[v] {
				t.Fatalf("%s: non-tripping Cancel: dist[%d] = %d, want %d",
					run.name, v, never.Dist[v], want.Dist[v])
			}
		}

		const stopAfter = 2
		polls := 0
		got := run.bfs(func() bool { polls++; return polls > stopAfter })
		deeper := 0
		for v := range got.Dist {
			switch {
			case want.Dist[v] >= 0 && want.Dist[v] < stopAfter:
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("%s: cancelled run lost settled level: dist[%d] = %d, want %d",
						run.name, v, got.Dist[v], want.Dist[v])
				}
			case want.Dist[v] > stopAfter:
				if got.Dist[v] != -1 {
					deeper++
				}
			}
		}
		if deeper > 0 {
			t.Fatalf("%s: cancelled run labeled %d vertices beyond the cancel level", run.name, deeper)
		}
	}
}
