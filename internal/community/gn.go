package community

import "snap/internal/graph"

// GNOptions configures the Girvan–Newman baseline, which is PBD's
// removal loop at exact settings (see GirvanNewman).
type GNOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// MaxRemovals stops after that many edge removals (0 = remove
	// every edge, the full NG trajectory).
	MaxRemovals int
	// Patience stops after this many consecutive removals without a
	// new best modularity (0 = disabled). Since the NG modularity
	// trajectory declines once communities fragment past the optimum,
	// a generous patience recovers the full-run answer at a fraction
	// of the cost on large instances.
	Patience int
}

// GirvanNewman is the exact edge-betweenness divisive algorithm
// (Newman & Girvan 2004): repeatedly recompute exact edge betweenness,
// remove the highest-scoring edge, and track the modularity of the
// connected-component partition, returning the best clustering seen.
//
// It runs PBD with every member of a component as a source
// (SampleFraction 1), a refresh after every removal (RefreshInterval
// 1) and no bridge boost. Exactness is preserved while avoiding
// redundant work: removing an edge only perturbs shortest paths inside
// its own component, so only the affected component's (or both
// fragments') scores are recomputed, with cached scores reused
// elsewhere.
func GirvanNewman(g *graph.Graph, opt GNOptions) (Clustering, *Dendrogram) {
	return PBD(g, PBDOptions{
		Workers:         opt.Workers,
		SampleFraction:  1,
		RefreshInterval: 1,
		MaxRemovals:     opt.MaxRemovals,
		Patience:        opt.Patience,
	})
}
