package sssp

import (
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/oracle"
)

// TestDeltaSteppingCancelThenReuse pins the abort path's clean-state
// guarantee: a cancelled run may leave entries in the bucket window and
// far list mid-flight, and abort must clear them (and reset the touched
// distances) so the SAME pooled workspace immediately produces exact
// results on its next run. Exercised at several cancel points — first
// poll, mid-run with a heavy-tailed weight spread that populates the
// far overflow list, and the unweighted BFS degenerate path.
func TestDeltaSteppingCancelThenReuse(t *testing.T) {
	gw := reweight(generate.RMAT(400, 1600, generate.DefaultRMAT(), 12), heavyTailW, 41)
	gu := generate.RMAT(400, 1600, generate.DefaultRMAT(), 13)
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)

	check := func(stage string, g *graph.Graph, delta float64, src int32) {
		want := oracle.Dijkstra(g, src)
		ws.Run(g, src, DeltaSteppingOptions{Delta: delta, Workers: 2})
		for v := range want.Dist {
			if math.Float64bits(ws.Dist()[v]) != math.Float64bits(want.Dist[v]) {
				t.Fatalf("%s: post-cancel reuse: dist[%d] = %g, want %g",
					stage, v, ws.Dist()[v], want.Dist[v])
			}
		}
		if len(ws.Reached()) == 0 {
			t.Fatalf("%s: post-cancel reuse: empty Reached()", stage)
		}
	}

	// Cancel on the very first poll: nothing beyond the source is
	// touched. An aborted run's Dist() is unspecified (the run stops
	// between phases — partial results must not be served); what abort
	// guarantees is the touched list stays complete so the next reset
	// is exact.
	ws.Run(gw, 7, DeltaSteppingOptions{Delta: 0.5, Workers: 2,
		Cancel: func() bool { return true }})
	if r := ws.Reached(); len(r) != 1 || r[0] != 7 {
		t.Fatalf("first-poll cancel: Reached() = %v, want [7]", r)
	}
	check("first-poll", gw, 0.5, 9) // tiny delta → capped window + far list

	// Cancel deep in the run, once the far list has been fed by the
	// six-orders-of-magnitude weight spread.
	polls := 0
	ws.Run(gw, 3, DeltaSteppingOptions{Delta: 0.5, Workers: 2,
		Cancel: func() bool { polls++; return polls > 12 }})
	if polls <= 12 {
		t.Fatalf("mid-run cancel never tripped (%d polls); pick a later trip point", polls)
	}
	check("mid-run", gw, 0.5, 5)

	// Unweighted degenerate path: cancellation flows through the shared
	// frontier engine's level loop.
	lv := 0
	ws.Run(gu, 2, DeltaSteppingOptions{Workers: 2,
		Cancel: func() bool { lv++; return lv > 2 }})
	check("unweighted", gu, 0, 11)
}
