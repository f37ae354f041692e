package centrality

import (
	"math/rand"

	"snap/internal/graph"
	"snap/internal/par"
)

// ApproxOptions configures adaptive-sampling approximate betweenness.
type ApproxOptions struct {
	// SampleFraction is the fraction of vertices sampled as traversal
	// sources when the adaptive test does not stop earlier. The paper
	// reports <20% error on the top-1% entities with 5% sampling;
	// 0 selects 0.05.
	SampleFraction float64
	// Alpha is the adaptive-stopping multiplier: sampling stops early
	// once the running maximum accumulated dependency exceeds
	// Alpha * n (Bader et al. use cutoffs of this form for
	// high-centrality entities). 0 selects 5.
	Alpha float64
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// Seed makes source sampling deterministic.
	Seed int64
	// ComputeVertex/ComputeEdge select accumulation targets (both
	// default true when both false).
	ComputeVertex bool
	ComputeEdge   bool
}

// Sampling draws approxBatch sources between adaptive-stop tests and
// at least approxMinSamples in all; a graph with no more vertices than
// the budget is computed exactly.
const (
	approxBatch      = 4
	approxMinSamples = 8
)

func (o *ApproxOptions) fill() {
	if !(o.SampleFraction > 0) {
		o.SampleFraction = 0.05
	}
	if !(o.Alpha > 0) {
		o.Alpha = 5
	}
	if o.Workers <= 0 {
		o.Workers = par.Workers()
	}
	if !o.ComputeVertex && !o.ComputeEdge {
		o.ComputeVertex = true
		o.ComputeEdge = true
	}
}

// ApproxBetweenness estimates betweenness centrality by adaptive source
// sampling (Bader, Kintali, Madduri & Mihail, WAW 2007): traversal
// sources are drawn uniformly at random in batches; after each batch
// the running maximum dependency is tested against Alpha*n, and
// sampling stops as soon as the estimate of the high-centrality
// entities is stable, or when SampleFraction*n sources have been used.
// Scores are extrapolated to the exact scale (multiplied by
// n/samples), so they are directly comparable with Betweenness output.
func ApproxBetweenness(g *graph.Graph, opt ApproxOptions) Scores {
	n := g.NumVertices()
	opt.fill()
	budget := max(int(opt.SampleFraction*float64(n)), approxMinSamples)
	if budget >= n {
		// Cheaper to be exact.
		return Betweenness(g, BetweennessOptions{
			Workers:       opt.Workers,
			ComputeVertex: opt.ComputeVertex,
			ComputeEdge:   opt.ComputeEdge,
		})
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	perm := rng.Perm(n) // sample without replacement

	out := Scores{}
	if opt.ComputeVertex {
		out.Vertex = make([]float64, n)
	}
	if opt.ComputeEdge {
		out.Edge = make([]float64, g.NumEdges())
	}
	used := 0
	threshold := opt.Alpha * float64(n)
	// The adaptive-stop statistic is the maximum accumulated dependency
	// so far. Dependencies only grow as batches accumulate, so the
	// maximum is maintained incrementally while folding each batch in —
	// no per-batch rescan of the full score arrays.
	mx := 0.0
	for used < budget {
		batch := min(approxBatch, budget-used)
		sources := make([]int32, batch)
		for i := 0; i < batch; i++ {
			sources[i] = int32(perm[used+i])
		}
		part := Betweenness(g, BetweennessOptions{
			Workers:       opt.Workers,
			ComputeVertex: opt.ComputeVertex,
			ComputeEdge:   opt.ComputeEdge,
			Sources:       sources,
		})
		for i, v := range part.Vertex {
			if v != 0 {
				out.Vertex[i] += v
				if out.Vertex[i] > mx {
					mx = out.Vertex[i]
				}
			}
		}
		for i, v := range part.Edge {
			if v != 0 {
				out.Edge[i] += v
				if out.Edge[i] > mx {
					mx = out.Edge[i]
				}
			}
		}
		used += batch
		if used >= approxMinSamples && mx >= threshold {
			break
		}
	}
	out.Sources = used
	ScaleSampled(out.Vertex, n, used)
	ScaleSampled(out.Edge, n, used)
	return out
}
