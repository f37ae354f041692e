package graph

import "snap/internal/par"

// BuildOptions controls CSR construction.
type BuildOptions struct {
	// Directed selects directed arcs; otherwise each input edge is
	// stored as two arcs sharing an edge id.
	Directed bool
	// Weighted keeps per-edge weights; otherwise weights are dropped
	// and the graph is unweighted (weight 1).
	Weighted bool
	// AllowSelfLoops keeps edges with U == V; by default they are
	// silently dropped (SNA metrics assume simple graphs).
	AllowSelfLoops bool
	// AllowMulti keeps parallel edges; by default duplicates (same
	// endpoint pair) collapse to one edge, keeping the first weight.
	AllowMulti bool
}

// Build constructs a CSR graph with n vertices from edges.
// Endpoints outside [0, n) are an error.
//
// Construction runs the parallel assembly kernel (see assemble.go) at
// every size; its output is the same at any worker count: edge ids are
// deterministic ranks (input order with AllowMulti, sorted unique-pair
// order without), and adjacency arcs are ordered by (neighbor, edge id).
func Build(n int, edges []Edge, opt BuildOptions) (*Graph, error) {
	return buildParallel(n, edges, opt, par.Workers())
}

// MustBuild is Build but panics on error; intended for tests, embedded
// datasets, and generators whose inputs are valid by construction.
func MustBuild(n int, edges []Edge, opt BuildOptions) *Graph {
	g, err := Build(n, edges, opt)
	if err != nil {
		panic(err)
	}
	return g
}
