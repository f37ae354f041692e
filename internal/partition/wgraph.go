package partition

import (
	"snap/internal/graph"
)

// wgraph is the weighted working graph of the recursive-bisection and
// spectral pipelines: vertices carry weights (#fine vertices collapsed
// into them) and edges carry weights (#fine edges collapsed into them).
// The direct k-way engine works on wview levels inside a Workspace
// instead; wgraph survives because the bisection paths own induced
// subgraphs and hierarchies across recursive splits.
type wgraph struct {
	offsets []int64
	adj     []int32
	ew      []int64
	vw      []int64
	// directed: built from a directed graph, so adj may be asymmetric
	// (the coarsener's contraction needs to know).
	directed bool
}

func (w *wgraph) n() int { return len(w.vw) }

func (w *wgraph) totalVW() int64 {
	var s int64
	for _, x := range w.vw {
		s += x
	}
	return s
}

func (w *wgraph) degree(v int32) int64 {
	// Weighted degree: sum of incident edge weights.
	var s int64
	for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
		s += w.ew[a]
	}
	return s
}

// fromGraph converts a CSR graph to a unit-weight wgraph.
func fromGraph(g *graph.Graph) *wgraph {
	n := g.NumVertices()
	w := &wgraph{
		offsets:  g.Offsets,
		adj:      g.Adj,
		ew:       make([]int64, len(g.Adj)),
		vw:       make([]int64, n),
		directed: g.Directed(),
	}
	for i := range w.ew {
		w.ew[i] = 1
	}
	for i := range w.vw {
		w.vw[i] = 1
	}
	return w
}
