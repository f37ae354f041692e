// Package sketch is the approximate-analytics tier for graphs where
// the exact distance kernels are infeasible: a HyperANF-style
// neighborhood-function kernel over per-vertex HyperLogLog registers
// (effective diameter, average path length, and per-vertex
// neighborhood sizes in a handful of level-synchronous union sweeps
// instead of n BFS runs), Eppstein–Wang sampled closeness with
// Hoeffding error bounds, and a k-landmark distance oracle answering
// point-to-point distance queries in O(k).
//
// Every kernel follows the house rules of the exact tier: reusable
// epoch-free workspaces that reach zero allocations per run once warm,
// seeded deterministic hashing and sampling so serial and parallel
// runs are bit-identical at any worker count, and estimates whose
// error model is documented (DESIGN.md §5i) rather than folklore.
package sketch

import "math/rand"

// DefaultSeed is the seed every sampled or hashed kernel in this
// repository uses when the caller passes seed 0: "zero means the
// documented deterministic default", so out-of-the-box runs are
// reproducible across machines and releases without forcing callers
// to invent a constant. Any other seed value is used as given.
//
// The constant spells "SNAPSKCH" in ASCII — arbitrary, but fixed
// forever: changing it would silently change every default-seeded
// result in the tree (pinned by TestNewRNGDefaultSeed).
const DefaultSeed int64 = 0x534e4150534b4348

// EffectiveSeed maps a caller-provided seed to the seed actually used:
// 0 becomes DefaultSeed, everything else is itself. All sampled
// kernels (sketch closeness, landmark selection, HLL hashing,
// metrics.AvgPathLength) route their seed
// through this one function so "seed 0" behaves identically everywhere.
func EffectiveSeed(seed int64) int64 {
	if seed == 0 {
		return DefaultSeed
	}
	return seed
}

// NewRNG returns the deterministic random source for a sampled kernel:
// rand.New(rand.NewSource(EffectiveSeed(seed))). The stream for a
// given seed is stable — tests pin sampled results against it.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(EffectiveSeed(seed)))
}

// SampleVertices draws k distinct vertex ids from [0, n) using the
// unified rng: the first k entries of a seeded permutation, the
// sampling scheme the seed-era kernels used, kept verbatim so existing
// fixed-seed results survive the refactor. k is clamped to n.
func SampleVertices(n, k int, seed int64) []int32 {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	perm := NewRNG(seed).Perm(n)
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(perm[i])
	}
	return out
}
