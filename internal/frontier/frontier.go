// Package frontier is the shared traversal core behind every
// level-synchronous kernel in SNAP-Go: a hybrid Frontier that switches
// between a sparse int32 queue and a dense bitmap, and a
// direction-optimizing level-synchronous Engine (Beamer-style top-down
// / bottom-up hybrid) whose state is epoch-stamped so back-to-back
// traversals reset in O(1) and run allocation-free.
//
// The BFS, components, metrics (iFUB diameter, path lengths,
// bipartiteness), Brandes betweenness (behind the divisive community
// kernels), and unweighted SSSP kernels all drive their frontier loops
// through this package instead of hand-rolling queue bookkeeping, so a
// tuning win here is inherited by every traversal consumer at once.
// The one exception is bfs.STSearch, the bidirectional s-t search,
// whose two waves share one signed level-mark array.
package frontier

// Frontier is one BFS level in its hybrid representation. The sparse
// form (a vertex slice plus the sum of the vertices' out-degrees) is
// always maintained — it is what top-down expansion iterates and what
// the direction heuristic inspects. The dense bitmap form is
// materialized on demand by Densify for bottom-up steps, where the
// membership probe "is u in the frontier?" must be O(1).
//
// The zero value is an empty frontier. A Frontier is not safe for
// concurrent mutation; engines own one per traversal.
type Frontier struct {
	verts []int32
	edges int64
	bits  []uint64
	dense bool
}

// Reset empties the frontier (keeping capacity for reuse).
func (f *Frontier) Reset() {
	f.verts = f.verts[:0]
	f.edges = 0
	f.dense = false
}

// Add appends v, accounting deg (v's out-degree) toward the frontier's
// edge total. Invalidates any bitmap built by an earlier Densify.
func (f *Frontier) Add(v int32, deg int64) {
	f.verts = append(f.verts, v)
	f.edges += deg
	f.dense = false
}

// SetSparse points the frontier at an externally owned vertex slice
// (typically a window of an engine's visitation order) with the given
// out-degree sum. The slice is aliased, not copied.
func (f *Frontier) SetSparse(verts []int32, edges int64) {
	f.verts = verts
	f.edges = edges
	f.dense = false
}

// Len reports the number of frontier vertices.
func (f *Frontier) Len() int { return len(f.verts) }

// Edges reports the sum of out-degrees over the frontier — the
// top-down work estimate the direction heuristic compares against the
// unexplored remainder of the graph.
func (f *Frontier) Edges() int64 { return f.edges }

// Verts returns the sparse form (read-only).
func (f *Frontier) Verts() []int32 { return f.verts }

// Densify (re)builds the dense bitmap over an n-vertex universe from
// the sparse form. O(n/64 + len) — paid only when a level actually runs
// bottom-up. The bitmap storage is retained across calls.
func (f *Frontier) Densify(n int) {
	words := (n + 63) >> 6
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	} else {
		f.bits = f.bits[:words]
		clear(f.bits)
	}
	for _, v := range f.verts {
		f.bits[v>>6] |= 1 << (uint(v) & 63)
	}
	f.dense = true
}

// Dense reports whether the bitmap matches the current sparse content.
func (f *Frontier) Dense() bool { return f.dense }

// Has reports frontier membership via the bitmap. Valid only after
// Densify (bottom-up steps densify before probing).
func (f *Frontier) Has(v int32) bool {
	return f.bits[v>>6]>>(uint(v)&63)&1 != 0
}

// Stack is a reusable int32 LIFO — the shared container for the
// iterative DFS kernels (biconnected components) that sit alongside
// the level-synchronous engine, so they stop hand-rolling slice-stack
// bookkeeping.
type Stack struct{ items []int32 }

// Push appends v.
func (s *Stack) Push(v int32) { s.items = append(s.items, v) }

// Pop removes and returns the top. Panics on an empty stack.
func (s *Stack) Pop() int32 {
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// Top returns the top without removing it.
func (s *Stack) Top() int32 { return s.items[len(s.items)-1] }

// Len reports the number of stacked items.
func (s *Stack) Len() int { return len(s.items) }
