// Package frontier is the shared traversal core behind every
// level-synchronous kernel in SNAP-Go: a direction-optimizing
// level-synchronous Engine (Beamer-style top-down / bottom-up hybrid)
// whose state is epoch-stamped so back-to-back traversals reset in
// O(1) and run allocation-free, and the Frontier bitmap its bottom-up
// steps probe.
//
// The BFS, components, metrics (iFUB diameter, path lengths,
// bipartiteness), Brandes betweenness (behind the divisive community
// kernels), and unweighted SSSP kernels all drive their frontier loops
// through this package instead of hand-rolling queue bookkeeping, so a
// tuning win here is inherited by every traversal consumer at once.
// The one exception is bfs.STSearch, the bidirectional s-t search,
// whose two waves share one signed level-mark array.
package frontier

// Frontier is a vertex set as a dense bitmap, for loops that probe
// "is u in the set?" once per arc: the engine's bottom-up steps and
// HyperANF's changed-row sweeps. The zero value is empty until the
// first Set; the bitmap storage is retained across calls.
type Frontier struct {
	bits []uint64
}

// Set makes the frontier exactly verts over an n-vertex universe.
// O(n/64 + len(verts)); verts is read, not retained.
func (f *Frontier) Set(verts []int32, n int) {
	words := (n + 63) >> 6
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	} else {
		f.bits = f.bits[:words]
		clear(f.bits)
	}
	for _, v := range verts {
		f.bits[v>>6] |= 1 << (uint(v) & 63)
	}
}

// Has reports whether v is in the frontier; v must lie in the
// universe of the last Set.
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
