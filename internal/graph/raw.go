package graph

import "errors"

// Zero-copy construction and lifetime management. The SNP2 container
// (internal/graph/container) builds graphs whose slice fields alias a
// read-only file mapping; these hooks let it do that without exposing
// the Graph internals, and give such graphs an explicit release point.

// ErrClosed reports use of a graph after Close released its backing
// resource: the CSR slices alias an unmapped container and any access
// would fault. Returned by CheckOpen and by the error-returning entry
// points that read the CSR.
var ErrClosed = errors.New("graph: use after Close (backing container unmapped)")

// WrapCSR wraps pre-built CSR arrays in a Graph without copying or
// validating them. The caller asserts the Graph invariants hold
// (monotone offsets spanning adj, sorted adjacency, in-range edge ids,
// arc symmetry when undirected — see Validate); kernels index these
// slices unchecked. w may be nil for an unweighted graph. The slices
// are retained, not copied: they must stay immutable (and, for a
// mapped file, mapped) for the graph's lifetime.
func WrapCSR(offsets []int64, adj, eid []int32, w []float64, directed bool, numEdges int) *Graph {
	return &Graph{
		Offsets:  offsets,
		Adj:      adj,
		EID:      eid,
		W:        w,
		directed: directed,
		numEdges: numEdges,
	}
}

// SetCloser registers fn to run on the first Close. Used by loaders
// whose slices alias an external resource (an mmap'd container).
func (g *Graph) SetCloser(fn func() error) { g.closer = fn }

// Close releases the resource backing the graph's slices, if any: for
// a graph mapped from an SNP2 container it unmaps the file, after
// which every slice field (and anything aliasing them — Neighbors
// results, subslices held by callers) becomes invalid. Close is
// idempotent, and a no-op for heap-built graphs. The mapped loader
// also registers a finalizer as a safety net, but relying on it keeps
// address space pinned until GC; call Close deterministically.
func (g *Graph) Close() error {
	fn := g.closer
	if fn == nil {
		return nil
	}
	g.closer = nil
	g.closed = true
	return fn()
}

// CheckOpen returns ErrClosed when the graph has been Closed, nil
// otherwise — the guard every error-returning facade and serving entry
// point runs before touching the CSR, turning a use-after-Close from a
// segfault on the dead mmap into an ordinary error.
func (g *Graph) CheckOpen() error {
	if g.closed {
		return ErrClosed
	}
	return nil
}
