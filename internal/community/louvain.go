package community

import "snap/internal/graph"

// LouvainOptions configures the multilevel local-moving heuristic.
type LouvainOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers(). For a
	// fixed Seed the partition is identical for EVERY worker count —
	// see the batch-synchronous engine in move.go.
	Workers int
	// MaxLevels caps the contraction hierarchy depth. 0 => 16.
	MaxLevels int
	// Seed drives the deterministic vertex-order pseudo-shuffle.
	Seed int64
	// Stats, when non-nil, receives the per-level, per-pass record of
	// the move engine. Recording steers nothing.
	Stats *MoveStats
}

// Louvain is the multilevel local-moving heuristic (Blondel et al.
// 2008) — published the same year as the paper and since become the
// standard fast modularity baseline; it is included for comparison
// with pBD/pMA/pLA. Each level runs batch-synchronous local moving to
// convergence, then contracts communities and recurses. Undirected
// graphs only: the engine reads g's CSR as symmetric, so on a directed
// graph the partition and its Q mean nothing. The whole
// hierarchy runs inside a MoveWorkspace of the call's own, dropped on
// return (the result keeps only its Assign array), so no level CSR
// outlives the call; callers that cluster many graphs hold a
// workspace and call its Louvain method.
func Louvain(g *graph.Graph, opt LouvainOptions) Clustering {
	return new(MoveWorkspace).Louvain(g, opt)
}
