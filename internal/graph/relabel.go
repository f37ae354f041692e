package graph

import (
	"fmt"

	"snap/internal/par"
)

// Relabel builds the graph with vertices renamed by perm, where
// perm[newID] = oldID (a permutation of [0, n)). It returns the
// relabeled graph and the inverse mapping inv (inv[oldID] = newID), so
// results computed on the relabeled graph map back as
// valueOld[v] = valueNew[inv[v]].
//
// The permutation is applied directly on the CSR arrays — no edge-list
// round trip: new offsets come from a permuted-degree prefix sum, each
// row is scattered with remapped neighbor ids and re-sorted by
// (neighbor, edge id) with Build's row sort, carrying EID and W along,
// and all passes run data-parallel over disjoint rows. Edge ids and
// weights are preserved arc-for-arc, so relabeling commutes with every
// EID- or weight-indexed kernel, and the arcs come out in the order
// Build gives the renamed edge list.
func Relabel(g *Graph, perm []int32) (*Graph, []int32, error) {
	if err := g.CheckOpen(); err != nil {
		return nil, nil, err
	}
	n := g.NumVertices()
	if len(perm) != n {
		return nil, nil, fmt.Errorf("graph: relabel perm length %d != n %d", len(perm), n)
	}
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = -1
	}
	for newID, oldID := range perm {
		if oldID < 0 || int(oldID) >= n {
			return nil, nil, fmt.Errorf("graph: relabel perm[%d] = %d out of range", newID, oldID)
		}
		if inv[oldID] != -1 {
			return nil, nil, fmt.Errorf("graph: relabel perm not a permutation: %d appears twice", oldID)
		}
		inv[oldID] = int32(newID)
	}

	workers := par.Workers()
	deg := make([]int64, n)
	par.ForChunkedN(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			old := perm[v]
			deg[v] = g.Offsets[old+1] - g.Offsets[old]
		}
	})
	offsets := par.PrefixSum(deg)

	rg := WrapCSR(offsets, make([]int32, len(g.Adj)), make([]int32, len(g.EID)), nil, g.Directed(), g.NumEdges())
	if g.W != nil {
		rg.W = make([]float64, len(g.W))
	}
	par.ForDegreeAware(deg, workers, func(_, lo, hi int) {
		s := arcPairSorter{g: rg}
		for v := lo; v < hi; v++ {
			src, end := g.Offsets[perm[v]], g.Offsets[perm[v]+1]
			dst := offsets[v]
			for i, u := range g.Adj[src:end] {
				rg.Adj[dst+int64(i)] = inv[u]
			}
			copy(rg.EID[dst:], g.EID[src:end])
			if rg.W != nil {
				copy(rg.W[dst:], g.W[src:end])
			}
			s.sortRange(dst, offsets[v+1])
		}
	})
	return rg, inv, nil
}
