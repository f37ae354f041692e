// Package partition implements the graph-partitioning baselines of the
// paper's Table 1: multilevel k-way and recursive-bisection
// partitioners in the style of Metis (heavy-edge-matching coarsening,
// greedy growing, boundary refinement by strictly cut-reducing moves
// inside a balance window), and spectral bisection heuristics in the
// style of Chaco (Fiedler vectors by multilevel power/Rayleigh-quotient
// iteration and by Lanczos iteration). Both Metis styles run one
// engine on one weighted-graph type (wview) in a Workspace: k-way
// gives its k parts equal integer shares of the vertex weight, and
// each split of recursive bisection is the same engine with two parts
// whose shares are the part counts of its halves. The experiment these support shows that such
// partitioners produce good cuts on near-Euclidean "physical" graphs
// and poor, orders-of-magnitude-worse cuts on small-world networks.
package partition

import (
	"errors"
	"fmt"

	"snap/internal/graph"
)

// ErrNoConvergence is returned by the spectral methods when the
// eigensolver fails to converge within its budget — the analogue of
// Chaco's failure to complete on the paper's small-world instance.
var ErrNoConvergence = errors.New("partition: eigensolver failed to converge")

// Result is a k-way partition of the vertices.
type Result struct {
	// Part maps each vertex to a part id in [0, K).
	Part []int32
	// K is the requested number of parts.
	K int
	// EdgeCut is the number (weight) of edges crossing parts.
	EdgeCut int64
	// Balance is max part vertex-weight divided by the ideal
	// (total/K); 1.0 is perfect balance.
	Balance float64
}

// EdgeCut counts the total weight of edges whose endpoints are in
// different parts.
func EdgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for _, e := range g.EdgeEndpoints() {
		if part[e.U] != part[e.V] {
			if g.Weighted() {
				cut += int64(e.W)
			} else {
				cut++
			}
		}
	}
	return cut
}

// Balance computes max-part-size / ideal-part-size for a k-way
// partition (vertex weight 1 per vertex).
func Balance(part []int32, k int) float64 {
	if len(part) == 0 || k <= 0 {
		return 1
	}
	sizes := make([]int64, k)
	for _, p := range part {
		if int(p) < k {
			sizes[p]++
		}
	}
	var mx int64
	for _, s := range sizes {
		if s > mx {
			mx = s
		}
	}
	ideal := float64(len(part)) / float64(k)
	return float64(mx) / ideal
}

// finish assembles a Result from an assignment.
func finish(g *graph.Graph, part []int32, k int) Result {
	return Result{
		Part:    part,
		K:       k,
		EdgeCut: EdgeCut(g, part),
		Balance: Balance(part, k),
	}
}

// validateK rejects nonsensical part counts.
func validateK(g *graph.Graph, k int) error {
	if k < 2 {
		return fmt.Errorf("partition: k=%d, need k >= 2", k)
	}
	if k > g.NumVertices() {
		return fmt.Errorf("partition: k=%d exceeds n=%d", k, g.NumVertices())
	}
	return nil
}
