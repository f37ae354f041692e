package graph

import (
	"fmt"
	"math"
	"sort"

	"snap/internal/par"
)

// Parallel CSR assembly (GAP-style, Beamer et al.): every graph
// producer in the repo funnels through Build, so construction speed is
// the admission price of every workload. The serial seed builder paid
// a global O(m log m) comparison sort plus a serial counting pass; the
// parallel assembler replaces that with
//
//  1. a parallel validate pass,
//  2. a parallel clean/canonicalize pass into a dense edge array
//     (input order preserved, so edge ids stay deterministic),
//  3. per-worker degree histograms + a parallel prefix/cursor pass
//     (the counting-sort pattern proven in Reverse),
//  4. scatter placement into disjoint (worker, vertex) cursor ranges —
//     no atomics — and
//  5. a degree-aware parallel per-vertex adjacency sort with in-pass
//     dedup, so AllowMulti=false no longer needs any global ordering.
//
// Determinism: arcs reach each vertex ordered by (worker id, position
// within worker chunk) = ascending cleaned-edge index, and every sort
// uses the total key (neighbor, cleaned index). The output is
// therefore bit-identical for any worker count, and identical to a
// stable global sort of the cleaned edges (the test oracle).

// buildParallel is the parallel CSR assembly kernel behind Build. Its
// output depends on the options and the edges only, never on workers
// (>= 1).
func buildParallel(n int, edges []Edge, opt BuildOptions, workers int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 {
		// Vertex ids are int32: a larger n is unaddressable, and its
		// O(n) arrays would be allocated before any edge is read.
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32 ids", n)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(edges) {
		workers = len(edges)
	}
	if workers < 1 {
		workers = 1
	}

	// Phase 1: parallel validation. The earliest offending edge wins so
	// the error message does not depend on workers.
	badAt := make([]int, workers)
	for w := range badAt {
		badAt[w] = -1
	}
	par.ForChunkedN(len(edges), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				badAt[w] = i
				return
			}
		}
	})
	for w := 0; w < workers; w++ {
		if badAt[w] >= 0 {
			e := edges[badAt[w]]
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}

	// Phase 2: parallel clean/canonicalize into a dense array, input
	// order preserved (per-worker keep counts, prefix, then write).
	keep := make([]int64, workers)
	par.ForChunkedN(len(edges), workers, func(w, lo, hi int) {
		var k int64
		for i := lo; i < hi; i++ {
			if edges[i].U != edges[i].V || opt.AllowSelfLoops {
				k++
			}
		}
		keep[w] = k
	})
	var total int64
	for w := 0; w < workers; w++ {
		t := keep[w]
		keep[w] = total
		total += t
	}
	clean := make([]Edge, total)
	par.ForChunkedN(len(edges), workers, func(w, lo, hi int) {
		c := keep[w]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V && !opt.AllowSelfLoops {
				continue
			}
			if !opt.Directed && e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			clean[c] = e
			c++
		}
	})

	if opt.AllowMulti {
		return assembleMulti(n, clean, opt, workers), nil
	}
	return assembleDedup(n, clean, opt, workers), nil
}

// assembleMulti builds the CSR keeping parallel edges: edge ids are
// cleaned-list indices, arcs are scattered by counting sort and each
// vertex's arcs are sorted by (neighbor, edge id).
func assembleMulti(n int, clean []Edge, opt BuildOptions, workers int) *Graph {
	if workers > len(clean) {
		workers = max(1, len(clean))
	}
	counts := make([][]int64, workers)
	par.ForChunkedN(len(clean), workers, func(w, lo, hi int) {
		c := make([]int64, n)
		for i := lo; i < hi; i++ {
			c[clean[i].U]++
			if !opt.Directed {
				c[clean[i].V]++
			}
		}
		counts[w] = c
	})
	for w := range counts {
		if counts[w] == nil {
			counts[w] = make([]int64, n)
		}
	}
	offsets := make([]int64, n+1)
	arcs := par.CursorsFromCounts(counts, offsets)

	adj := make([]int32, arcs)
	eid := make([]int32, arcs)
	var wts []float64
	if opt.Weighted {
		wts = make([]float64, arcs)
	}
	par.ForChunkedN(len(clean), workers, func(w, lo, hi int) {
		cur := counts[w]
		place := func(u, v int32, id int32, wt float64) {
			c := cur[u]
			adj[c] = v
			eid[c] = id
			if wts != nil {
				wts[c] = wt
			}
			cur[u] = c + 1
		}
		for i := lo; i < hi; i++ {
			e := clean[i]
			place(e.U, e.V, int32(i), e.W)
			if !opt.Directed {
				place(e.V, e.U, int32(i), e.W)
			}
		}
	})

	g := &Graph{
		Offsets:  offsets,
		Adj:      adj,
		EID:      eid,
		W:        wts,
		directed: opt.Directed,
		numEdges: len(clean),
	}
	parallelSortAdjacencies(g, workers)
	return g
}

// assembleDedup builds the CSR collapsing duplicate endpoint pairs.
// Cleaned edges are counting-sorted into per-tail buckets (preserving
// cleaned order within each bucket), each bucket is sorted by
// (head, position) and compacted — first weight wins — and edge ids
// are the ranks of the unique pairs in (tail, head) order, exactly the
// ids a stable global sort assigns.
// Undirected graphs get their mirror arcs from a second counting-sort
// scatter that preserves sorted adjacency.
func assembleDedup(n int, clean []Edge, opt BuildOptions, workers int) *Graph {
	if workers > len(clean) {
		workers = max(1, len(clean))
	}
	counts := make([][]int64, workers)
	par.ForChunkedN(len(clean), workers, func(w, lo, hi int) {
		c := make([]int64, n)
		for i := lo; i < hi; i++ {
			c[clean[i].U]++
		}
		counts[w] = c
	})
	for w := range counts {
		if counts[w] == nil {
			counts[w] = make([]int64, n)
		}
	}
	tailOff := make([]int64, n+1)
	total := par.CursorsFromCounts(counts, tailOff)

	// Scatter (head, weight, bucket position) triples. Positions are
	// ascending cleaned-edge indices within each bucket, which makes an
	// unstable sort on (head, position) equivalent to a stable sort on
	// head — the tie-break that picks the first-seen duplicate.
	hV := make([]int32, total)
	var hW []float64
	var hPos []int32
	if opt.Weighted {
		hW = make([]float64, total)
		hPos = make([]int32, total)
	}
	par.ForChunkedN(len(clean), workers, func(w, lo, hi int) {
		cur := counts[w]
		for i := lo; i < hi; i++ {
			e := clean[i]
			c := cur[e.U]
			hV[c] = e.V
			if opt.Weighted {
				hW[c] = e.W
				hPos[c] = int32(c - tailOff[e.U])
			}
			cur[e.U] = c + 1
		}
	})

	// Per-vertex sort + dedup, degree-aware across workers. uniq[v]
	// counts the surviving pairs; the bucket prefix holds them.
	uniq := make([]int64, n)
	bucketSizes := make([]int64, n)
	for v := 0; v < n; v++ {
		bucketSizes[v] = tailOff[v+1] - tailOff[v]
	}
	par.ForDegreeAware(bucketSizes, workers, func(w, lo, hi int) {
		var s dedupSorter
		for v := lo; v < hi; v++ {
			blo, bhi := tailOff[v], tailOff[v+1]
			if blo == bhi {
				continue
			}
			s.v = hV[blo:bhi]
			if opt.Weighted {
				s.w = hW[blo:bhi]
				s.pos = hPos[blo:bhi]
			} else {
				s.w, s.pos = nil, nil
			}
			s.sort()
			uniq[v] = int64(s.compact())
		}
	})

	eidBase := par.PrefixSum(uniq)
	m := eidBase[n]

	if opt.Directed {
		adj := make([]int32, m)
		eid := make([]int32, m)
		var wts []float64
		if opt.Weighted {
			wts = make([]float64, m)
		}
		par.ForDegreeAware(uniq, workers, func(w, lo, hi int) {
			for v := lo; v < hi; v++ {
				base := eidBase[v]
				blo := tailOff[v]
				for i := int64(0); i < uniq[v]; i++ {
					adj[base+i] = hV[blo+i]
					eid[base+i] = int32(base + i)
					if wts != nil {
						wts[base+i] = hW[blo+i]
					}
				}
			}
		})
		return &Graph{
			Offsets:  eidBase,
			Adj:      adj,
			EID:      eid,
			W:        wts,
			directed: true,
			numEdges: int(m),
		}
	}
	g := assembleSymmetric(n, tailOff, hV, hW, uniq, eidBase, workers)
	g.numEdges = int(m)
	return g
}

// assembleSymmetric materializes the undirected CSR from per-tail
// buckets of deduplicated canonical edges (tail <= head, heads sorted
// ascending within each bucket, hW nil for unweighted graphs): vertex
// v's adjacency is its mirror arcs (heads v of smaller tails, placed by
// a counting-sort scatter that preserves ascending tail order) followed
// by its forward arcs (its own bucket). Mirror neighbors are <= v and
// forward neighbors are >= v, so the concatenation is sorted without a
// sort pass. Both arcs of edge (u, v) carry edge id eidBase[u] + rank.
//
// Undirected (symmetrization of a directed graph without materializing
// its edge list) reuses this finalization on buckets merged straight
// from the out- and in-adjacencies.
func assembleSymmetric(n int, tailOff []int64, hV []int32, hW []float64, uniq, eidBase []int64, workers int) *Graph {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = max(1, n)
	}
	// Mirror-arc histograms per worker over tail chunks.
	counts := make([][]int64, workers)
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		c := make([]int64, n)
		for u := lo; u < hi; u++ {
			blo := tailOff[u]
			for i := int64(0); i < uniq[u]; i++ {
				c[hV[blo+i]]++
			}
		}
		counts[w] = c
	})
	for w := range counts {
		if counts[w] == nil {
			counts[w] = make([]int64, n)
		}
	}

	// Offsets: deg[v] = mirror count + forward count. The cursor pass
	// mirrors par.CursorsFromCounts but biases each bucket by uniq[v]
	// for the trailing forward section.
	offsets := make([]int64, n+1)
	chunks := par.Workers()
	if chunks > n {
		chunks = max(1, n)
	}
	chunkTotal := make([]int64, chunks)
	par.ForChunkedN(n, chunks, func(cw, lo, hi int) {
		var s int64
		for v := lo; v < hi; v++ {
			s += uniq[v]
			for w := 0; w < workers; w++ {
				s += counts[w][v]
			}
		}
		chunkTotal[cw] = s
	})
	var acc int64
	for cw := 0; cw < chunks; cw++ {
		t := chunkTotal[cw]
		chunkTotal[cw] = acc
		acc += t
	}
	fwdBase := make([]int64, n)
	par.ForChunkedN(n, chunks, func(cw, lo, hi int) {
		run := chunkTotal[cw]
		for v := lo; v < hi; v++ {
			offsets[v] = run
			for w := 0; w < workers; w++ {
				c := counts[w][v]
				counts[w][v] = run
				run += c
			}
			fwdBase[v] = run
			run += uniq[v]
		}
	})
	offsets[n] = acc

	adj := make([]int32, acc)
	eid := make([]int32, acc)
	var wts []float64
	if hW != nil {
		wts = make([]float64, acc)
	}
	// Mirror scatter: disjoint (worker, head) cursor ranges; ascending
	// tail order within and across chunks keeps each mirror run sorted.
	par.ForChunkedN(n, workers, func(w, lo, hi int) {
		cur := counts[w]
		for u := lo; u < hi; u++ {
			blo := tailOff[u]
			base := eidBase[u]
			for i := int64(0); i < uniq[u]; i++ {
				v := hV[blo+i]
				c := cur[v]
				adj[c] = int32(u)
				eid[c] = int32(base + i)
				if wts != nil {
					wts[c] = hW[blo+i]
				}
				cur[v] = c + 1
			}
		}
	})
	// Forward fill.
	par.ForDegreeAware(uniq, workers, func(w, lo, hi int) {
		for u := lo; u < hi; u++ {
			blo := tailOff[u]
			base := eidBase[u]
			fb := fwdBase[u]
			for i := int64(0); i < uniq[u]; i++ {
				adj[fb+i] = hV[blo+i]
				eid[fb+i] = int32(base + i)
				if wts != nil {
					wts[fb+i] = hW[blo+i]
				}
			}
		}
	})
	return &Graph{
		Offsets:  offsets,
		Adj:      adj,
		EID:      eid,
		W:        wts,
		directed: false,
	}
}

// parallelSortAdjacencies sorts every vertex's arcs by (neighbor, edge
// id) — a total key, so the result is deterministic — with degree-aware
// work partitioning. Arcs arrive in ascending edge-id order, so short
// runs fall to an insertion sort fast path.
func parallelSortAdjacencies(g *Graph, workers int) {
	n := g.NumVertices()
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Offsets[v+1] - g.Offsets[v]
	}
	par.ForDegreeAware(deg, workers, func(w, lo, hi int) {
		s := arcPairSorter{g: g}
		for v := lo; v < hi; v++ {
			s.sortRange(g.Offsets[v], g.Offsets[v+1])
		}
	})
}

const insertionSortCutoff = 24

func insertionSortArcs(g *Graph, lo, hi int64) {
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && arcLess(g, j, j-1); j-- {
			g.Adj[j], g.Adj[j-1] = g.Adj[j-1], g.Adj[j]
			g.EID[j], g.EID[j-1] = g.EID[j-1], g.EID[j]
			if g.W != nil {
				g.W[j], g.W[j-1] = g.W[j-1], g.W[j]
			}
		}
	}
}

func arcLess(g *Graph, a, b int64) bool {
	if g.Adj[a] != g.Adj[b] {
		return g.Adj[a] < g.Adj[b]
	}
	return g.EID[a] < g.EID[b]
}

// arcPairSorter sorts one vertex's arc range by (neighbor, edge id),
// carrying EID and W along. A pointer receiver keeps sort.Sort's
// interface conversion allocation-free across vertices.
type arcPairSorter struct {
	g  *Graph
	lo int64
	n  int
}

// sortRange orders arcs [lo, hi) of s.g by (neighbor, edge id): an
// insertion sort up to insertionSortCutoff arcs, sort.Sort above. The
// key is total, so the result does not depend on the starting order;
// Build and Relabel both order their rows here.
func (s *arcPairSorter) sortRange(lo, hi int64) {
	if hi-lo <= insertionSortCutoff {
		insertionSortArcs(s.g, lo, hi)
		return
	}
	s.lo, s.n = lo, int(hi-lo)
	sort.Sort(s)
}

func (s *arcPairSorter) Len() int { return s.n }
func (s *arcPairSorter) Less(i, j int) bool {
	return arcLess(s.g, s.lo+int64(i), s.lo+int64(j))
}
func (s *arcPairSorter) Swap(i, j int) {
	a, b := s.lo+int64(i), s.lo+int64(j)
	g := s.g
	g.Adj[a], g.Adj[b] = g.Adj[b], g.Adj[a]
	g.EID[a], g.EID[b] = g.EID[b], g.EID[a]
	if g.W != nil {
		g.W[a], g.W[b] = g.W[b], g.W[a]
	}
}

// dedupSorter sorts one bucket of (head, weight, position) triples by
// (head, position) and compacts duplicate heads in place. pos/w are nil
// for unweighted builds, where ties need no break: equal heads collapse
// to the same pair regardless of order.
type dedupSorter struct {
	v   []int32
	w   []float64
	pos []int32
}

func (s *dedupSorter) Len() int { return len(s.v) }
func (s *dedupSorter) Less(i, j int) bool {
	if s.v[i] != s.v[j] {
		return s.v[i] < s.v[j]
	}
	return s.pos != nil && s.pos[i] < s.pos[j]
}
func (s *dedupSorter) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	if s.w != nil {
		s.w[i], s.w[j] = s.w[j], s.w[i]
		s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
	}
}

func (s *dedupSorter) sort() {
	if len(s.v) < 2 {
		return
	}
	if len(s.v) <= insertionSortCutoff {
		for i := 1; i < len(s.v); i++ {
			for j := i; j > 0 && s.Less(j, j-1); j-- {
				s.Swap(j, j-1)
			}
		}
		return
	}
	sort.Sort(s)
}

// compact collapses runs of equal heads to the run's first entry
// (ascending position = first occurrence in cleaned order), weight
// included. Returns the unique count.
func (s *dedupSorter) compact() int {
	k := 0
	for i := 0; i < len(s.v); {
		j := i + 1
		for j < len(s.v) && s.v[j] == s.v[i] {
			j++
		}
		s.v[k] = s.v[i]
		if s.w != nil {
			s.w[k] = s.w[i]
		}
		k++
		i = j
	}
	return k
}

// Undirected returns g if it is already undirected, or a symmetrized
// copy obtained by ignoring arc directions (the paper's treatment of
// directed inputs in community detection: "we ignore edge directivity").
// Self-loops are dropped and antiparallel/multi arcs collapse to one
// undirected edge keeping the lowest-id arc's weight, exactly as
// Build's default options would on the materialized edge list — but the
// symmetrization works directly from the CSR and its transpose: each
// vertex u merges its sorted out- and in-neighbors above u into the
// deduplicated canonical bucket that assembleSymmetric finalizes,
// skipping the edge-list materialization and the global sort entirely.
func Undirected(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	n := g.NumVertices()
	rev := Reverse(g)
	workers := par.Workers()
	if workers > n {
		workers = max(1, n)
	}

	// Upper-candidate counts per vertex: arcs (u, x) with x > u from
	// either direction. Binary search finds each list's upper tail.
	upper := make([]int64, n)
	par.ForEachN(n, workers, func(u int) {
		upper[u] = int64(upperLen(g, int32(u)) + upperLen(rev, int32(u)))
	})
	bucketOff := par.PrefixSum(upper)
	total := bucketOff[n]

	hV := make([]int32, total)
	var hW []float64
	weighted := g.Weighted()
	if weighted {
		hW = make([]float64, total)
	}
	uniq := make([]int64, n)
	// Merge pass: both runs are sorted by (neighbor, eid), so a linear
	// merge that keeps the lowest-eid arc per distinct neighbor yields
	// the deduplicated canonical bucket in one sweep.
	par.ForDegreeAware(upper, workers, func(w, lo, hi int) {
		for u := lo; u < hi; u++ {
			uniq[u] = int64(mergeUpper(g, rev, int32(u), hV, hW, bucketOff[u], weighted))
		}
	})

	eidBase := par.PrefixSum(uniq)
	out := assembleSymmetric(n, bucketOff, hV, hW, uniq, eidBase, workers)
	out.numEdges = int(eidBase[n])
	return out
}

// upperLen reports how many arcs of u point strictly above u.
func upperLen(g *Graph, u int32) int {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] > u })
	return len(adj) - i
}

// mergeUpper merges u's upper out- and in-neighbor runs into
// dst[base:], collapsing duplicates to the lowest original edge id
// (whose weight survives, matching Build's first-wins dedup over the
// edge-id-ordered edge list). Returns the number of unique neighbors
// written.
func mergeUpper(g, rev *Graph, u int32, dst []int32, dstW []float64, base int64, weighted bool) int {
	oadj := g.Neighbors(u)
	oi := sort.Search(len(oadj), func(i int) bool { return oadj[i] > u })
	olo, ohi := g.Offsets[u]+int64(oi), g.Offsets[u+1]
	radj := rev.Neighbors(u)
	ri := sort.Search(len(radj), func(i int) bool { return radj[i] > u })
	rlo, rhi := rev.Offsets[u]+int64(ri), rev.Offsets[u+1]

	k := int64(0)
	for olo < ohi || rlo < rhi {
		var v int32
		var wt float64
		// Pick the next smallest (neighbor, eid) across both runs.
		takeOut := rlo >= rhi || (olo < ohi && (g.Adj[olo] < rev.Adj[rlo] ||
			(g.Adj[olo] == rev.Adj[rlo] && g.EID[olo] < rev.EID[rlo])))
		if takeOut {
			v = g.Adj[olo]
			if weighted {
				wt = g.W[olo]
			}
			olo++
		} else {
			v = rev.Adj[rlo]
			if weighted {
				wt = rev.W[rlo]
			}
			rlo++
		}
		if k > 0 && dst[base+k-1] == v {
			continue // duplicate: the lowest-eid arc already won
		}
		dst[base+k] = v
		if weighted {
			dstW[base+k] = wt
		}
		k++
	}
	return int(k)
}
