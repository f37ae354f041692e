package sketch

import (
	"math"
	"math/bits"
	"sync"

	"snap/internal/frontier"
	"snap/internal/graph"
	"snap/internal/par"
)

// ANFOptions configures the HyperANF neighborhood-function kernel.
type ANFOptions struct {
	// Registers is the per-vertex HyperLogLog register count (rounded
	// to a power of two in [16, 256]; 0 means 64). Per-vertex relative
	// standard error is ~1.04/sqrt(Registers); the aggregate
	// neighborhood function averages that error over n near-independent
	// per-vertex sketches, so it is far tighter in practice.
	Registers int
	// Seed drives the register hash; 0 means the documented
	// deterministic default (see DefaultSeed). Runs with equal seeds
	// are bit-identical at every worker count.
	Seed int64
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// MaxSweeps bounds the number of union sweeps (distance levels);
	// <= 0 runs to the register fixpoint, which is reached after at
	// most diameter-many sweeps. HyperANF is built for small-world
	// graphs where that is a handful; on mesh-like graphs with huge
	// diameters, bound it or use the exact tier.
	MaxSweeps int
	// Quantile is the effective-diameter quantile (0 means 0.9, the
	// conventional "90% of reachable pairs" definition).
	Quantile float64
	// Stats, when non-nil, receives a per-sweep record of the run. It
	// changes nothing about the result.
	Stats *ANFStats
}

// ANFResult is the estimated neighborhood function and the distance
// statistics derived from it. For graphs the exact tier can touch, the
// companion property tests hold these within the advertised HLL error
// of the BFS oracle.
type ANFResult struct {
	// NF[t] estimates the number of ordered pairs (u, v), self-pairs
	// included, with d(u, v) <= t. NF[0] ~ n; the last entry estimates
	// the number of reachable pairs. Clamped to be non-decreasing.
	NF []float64
	// Reach[v] estimates |{u : d(v, u) < inf}| — the per-vertex
	// neighborhood (reachable-set) size at convergence.
	Reach []float64
	// EffectiveDiameter is the interpolated smallest t such that NF(t)
	// covers Quantile of all reachable pairs.
	EffectiveDiameter float64
	// AvgPathLength is the mean distance over reachable ordered pairs
	// (self-pairs excluded), estimated from successive NF differences.
	AvgPathLength float64
	// DiameterEstimate is the last sweep that discovered new pairs —
	// an estimate (not a bound) of the diameter of the reachable-pair
	// relation.
	DiameterEstimate int
	// Sweeps is the number of union sweeps run.
	Sweeps int
	// Registers is the resolved per-vertex register count.
	Registers int
}

// ANFWorkspace is the reusable state of the HyperANF kernel: two
// ping-pong register planes, the changed-vertex frontier, and the
// per-vertex estimate plane. The zero value is ready to use; Run sizes
// it on demand. Acquire one per goroutine; a warm
// workspace runs with zero allocations at Workers <= 1 (the serial
// arm is closure-free, matching the move-engine discipline). Results
// returned by Run alias the workspace and are valid until the next
// Run or Release.
type ANFWorkspace struct {
	p          hllParams
	cur, next  []uint64 // n rows x p.words registers, ping-pong planes
	est        []float64
	sums       []float64 // per-row harmonic sum, maintained incrementally
	zeros      []int32   // per-row zero-register count, ditto
	nf         []float64
	changed    frontier.Frontier
	changedBuf []int32      // sparse changed list backing the frontier
	rows       []uint64     // bitmap of the rows the next sweep visits
	nexts      [][]int32    // per-worker changed-discovery buffers
	tallies    []sweepTally // per-worker sweep counts
	bounds     []int        // degree-aware vertex ranges, one per worker
	weights    []int64      // per-vertex degree weights for the partition
}

var anfPool = par.NewPool(func() *ANFWorkspace { return &ANFWorkspace{} })

// AcquireANFWorkspace returns a pooled workspace. Release it with
// ReleaseANFWorkspace when done.
func AcquireANFWorkspace() *ANFWorkspace { return anfPool.Get() }

// ReleaseANFWorkspace returns a workspace to the pool. The caller must
// not use ws (or results aliasing it) afterwards.
func ReleaseANFWorkspace(ws *ANFWorkspace) { anfPool.Put(ws) }

// ANF estimates the neighborhood function of g with a pooled
// workspace, copying the result out so it survives workspace reuse.
// See ANFWorkspace.Run for the kernel.
func ANF(g *graph.Graph, opt ANFOptions) ANFResult {
	ws := AcquireANFWorkspace()
	r := ws.Run(g, opt)
	r.NF = append([]float64(nil), r.NF...)
	r.Reach = append([]float64(nil), r.Reach...)
	ReleaseANFWorkspace(ws)
	return r
}

// Run executes the HyperANF sweep loop on g.
//
// Every vertex starts with an HLL sketch of {v}. Sweep t computes, for
// each vertex, the union of its own sketch with its out-neighbors'
// sweep-(t−1) sketches, so after t sweeps vertex v's sketch describes
// the ball B(v, t) and Σ_v E[|B(v, t)|] estimates NF(t). Sweeps read
// one register plane and write the other (each row has exactly one
// writer), and the union is a lattice max — commutative, associative,
// idempotent — so the result is bit-identical at every worker count.
// Only rows with a neighbor in the changed frontier are re-unioned:
// an unchanged neighbor's contribution is already folded into the
// previous plane, which the new plane starts from. While the changed
// list is long every row is scanned for such neighbors; once it is
// short (anfSparseBeta) an undirected sweep visits just the neighbors
// of the changed rows, in ascending order, and copies just the changed
// rows between planes. The loop stops at the register fixpoint,
// reached after at most diameter sweeps.
func (ws *ANFWorkspace) Run(g *graph.Graph, opt ANFOptions) ANFResult {
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > n {
		workers = n
	}
	p := makeParams(opt.Registers)
	quantile := opt.Quantile
	if quantile <= 0 {
		quantile = 0.9
	}
	if quantile > 1 {
		quantile = 1
	}
	ws.resize(n, p, workers)
	st := opt.Stats
	if st != nil {
		*st = ANFStats{}
	}
	if n == 0 {
		ws.nf = ws.nf[:0]
		return ANFResult{NF: ws.nf, Reach: ws.est, Registers: p.regs}
	}
	seedMix := mix64(uint64(EffectiveSeed(opt.Seed)))

	// Degree-aware contiguous vertex ranges, computed once per run and
	// reused by every sweep (the per-sweep work of a range is
	// proportional to its degree sum, just like a BFS level's).
	if workers > 1 {
		if cap(ws.weights) < n {
			ws.weights = make([]int64, 0, n)
		}
		ws.weights = ws.weights[:0]
		for v := 0; v < n; v++ {
			ws.weights = append(ws.weights, g.Offsets[v+1]-g.Offsets[v])
		}
		ws.bounds = append(ws.bounds[:0], par.DegreeAware(ws.weights, workers)...)
	} else {
		ws.bounds = append(ws.bounds[:0], 0, n)
	}

	// Plane init: sketch of {v} per row, plus its estimate; the first
	// changed frontier is everything. The serial arm is inlined — a
	// closure handed to forRanges escapes to goroutines in the parallel
	// branch and would cost the steady state its zero-alloc contract.
	if workers <= 1 {
		ws.initRange(0, n, p, seedMix)
	} else {
		ws.forRanges(workers, func(_, lo, hi int) {
			ws.initRange(lo, hi, p, seedMix)
		})
	}
	ws.changedBuf = ws.changedBuf[:0]
	for v := 0; v < n; v++ {
		ws.changedBuf = append(ws.changedBuf, int32(v))
	}
	ws.changed.SetSparse(ws.changedBuf, 0)
	ws.changed.Densify(n)

	ws.nf = append(ws.nf[:0], ws.sumEst())
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = math.MaxInt
	}

	sweeps := 0
	for sweeps < maxSweeps {
		// next := cur, then fold changed neighbors into the rows that have
		// one. After a sweep the two planes differ exactly in the rows that
		// grew — the changed list — so a sparse sweep copies those rows
		// only; the first sweep's list is every row.
		sparse := !g.Directed() && len(ws.changedBuf)*anfSparseBeta < n
		if sparse {
			for _, u := range ws.changedBuf {
				lo := int(u) * p.words
				copy(ws.next[lo:lo+p.words], ws.cur[lo:lo+p.words])
			}
			ws.markNeighbors(g)
		} else {
			copyPlane(ws.next, ws.cur, workers)
			ws.markAll(n)
		}
		if workers <= 1 {
			// Closure-free serial arm: the zero-allocation steady state.
			ws.nexts[0] = ws.sweepRange(g, 0, n, ws.nexts[0][:0], &ws.tallies[0])
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				lo, hi := ws.bounds[w], ws.bounds[w+1]
				ws.tallies[w] = sweepTally{}
				if lo >= hi {
					ws.nexts[w] = ws.nexts[w][:0]
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					ws.nexts[w] = ws.sweepRange(g, lo, hi, ws.nexts[w][:0], &ws.tallies[w])
				}(w, lo, hi)
			}
			wg.Wait()
		}
		changedCount := 0
		for w := 0; w < workers; w++ {
			changedCount += len(ws.nexts[w])
		}
		if st != nil {
			st.record(sparse, ws.tallies[:workers], changedCount)
		}
		if changedCount == 0 {
			break
		}
		sweeps++
		// Publish the new plane and the new changed frontier (merged in
		// worker order, so ascending like every range's discoveries).
		ws.cur, ws.next = ws.next, ws.cur
		ws.changedBuf = ws.changedBuf[:0]
		for w := 0; w < workers; w++ {
			ws.changedBuf = append(ws.changedBuf, ws.nexts[w]...)
		}
		ws.changed.SetSparse(ws.changedBuf, 0)
		ws.changed.Densify(n)
		// Serial index-order reduction: bit-identical at any worker
		// count (a per-worker partial-sum merge would round differently
		// as the worker count changes the grouping).
		nfT := ws.sumEst()
		if last := ws.nf[len(ws.nf)-1]; nfT < last {
			nfT = last // estimator dips are noise; NF is non-decreasing
		}
		ws.nf = append(ws.nf, nfT)
	}

	res := ANFResult{
		NF:        ws.nf,
		Reach:     ws.est,
		Sweeps:    sweeps,
		Registers: p.regs,
	}
	res.EffectiveDiameter = effectiveDiameter(ws.nf, quantile)
	res.AvgPathLength = anfAvgPath(ws.nf)
	for t := len(ws.nf) - 1; t >= 1; t-- {
		if ws.nf[t] > ws.nf[t-1] {
			res.DiameterEstimate = t
			break
		}
	}
	return res
}

// initRange seeds rows [lo, hi) of the cur plane with the singleton
// sketch {v}, its estimator state, and its estimate.
func (ws *ANFWorkspace) initRange(lo, hi int, p hllParams, seedMix uint64) {
	clear(ws.cur[lo*p.words : hi*p.words])
	for v := lo; v < hi; v++ {
		r := ws.cur[v*p.words : (v+1)*p.words]
		hllInsert(r, mix64(uint64(v)^seedMix), p)
		ws.sums[v], ws.zeros[v] = rowSummary(r, pow2neg)
		ws.est[v] = estimateFrom(ws.sums[v], ws.zeros[v], p)
	}
}

// anfSparseBeta is the sparse-sweep rule, in the β style of the BFS
// engine's switch-back test (DESIGN.md §5c): when fewer than n/β rows
// changed, the next sweep visits only their neighbors instead of
// scanning every row. Either way a visited row folds the same changed
// neighbors in the same order; the rule only decides how rows with no
// changed neighbor are skipped.
const anfSparseBeta = 8

// markAll selects every row of [0, n) for the next sweep.
func (ws *ANFWorkspace) markAll(n int) {
	for i := range ws.rows {
		ws.rows[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		ws.rows[len(ws.rows)-1] = 1<<uint(r) - 1
	}
}

// markNeighbors selects the rows with a changed neighbor: on an
// undirected graph those are the neighbors of the changed rows.
func (ws *ANFWorkspace) markNeighbors(g *graph.Graph) {
	rows := ws.rows
	clear(rows)
	for _, u := range ws.changedBuf {
		for _, v := range g.Adj[g.Offsets[u]:g.Offsets[u+1]] {
			rows[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// sweepTally counts one worker's share of a sweep for ANFStats.
type sweepTally struct {
	rows, unions, words int64
}

// sweepRange folds the changed neighbors of the marked rows in [lo, hi),
// in ascending row order, from the cur plane into the next plane,
// appending rows whose registers grew to buf. Owner-writes only: row v
// is written by exactly the worker that owns [lo, hi) ∋ v.
func (ws *ANFWorkspace) sweepRange(g *graph.Graph, lo, hi int, buf []int32, tally *sweepTally) []int32 {
	p := ws.p
	cur, next := ws.cur, ws.next
	changed := &ws.changed
	var t sweepTally
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		word := ws.rows[wi]
		if base < lo {
			word &= ^uint64(0) << uint(lo-base)
		}
		if hi-base < 64 {
			word &= 1<<uint(hi-base) - 1
		}
		for ; word != 0; word &= word - 1 {
			v := base + bits.TrailingZeros64(word)
			t.rows++
			dst := next[v*p.words : (v+1)*p.words]
			var dSum float64
			var dZeros int32
			grown := 0
			for _, u := range g.Adj[g.Offsets[v]:g.Offsets[v+1]] {
				if !changed.Has(u) {
					continue
				}
				t.unions++
				s, z, words := unionRowsSum(dst, cur[int(u)*p.words:(int(u)+1)*p.words], pow2neg)
				dSum += s
				dZeros += z
				grown += words
			}
			if grown != 0 {
				t.words += int64(grown)
				ws.sums[v] += dSum
				ws.zeros[v] += dZeros
				ws.est[v] = estimateFrom(ws.sums[v], ws.zeros[v], p)
				buf = append(buf, int32(v))
			}
		}
	}
	*tally = t
	return buf
}

// sumEst reduces the estimate plane in fixed index order.
func (ws *ANFWorkspace) sumEst() float64 {
	var s float64
	for _, e := range ws.est {
		s += e
	}
	return s
}

// forRanges runs body over the precomputed degree-aware ranges,
// serially when workers <= 1 (closure-free from the caller's
// perspective matters only for the sweep hot loop; init runs once).
func (ws *ANFWorkspace) forRanges(workers int, body func(w, lo, hi int)) {
	if workers <= 1 {
		body(0, ws.bounds[0], ws.bounds[len(ws.bounds)-1])
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := ws.bounds[w], ws.bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// copyPlane copies src into dst in parallel word chunks.
func copyPlane(dst, src []uint64, workers int) {
	if workers <= 1 || len(src) < 1<<16 {
		copy(dst, src)
		return
	}
	par.ForChunkedN(len(src), workers, func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// resize prepares the workspace for an n-vertex run with parameters p.
func (ws *ANFWorkspace) resize(n int, p hllParams, workers int) {
	ws.p = p
	words := n * p.words
	if cap(ws.cur) < words {
		ws.cur = make([]uint64, words)
		ws.next = make([]uint64, words)
	} else {
		ws.cur = ws.cur[:words]
		ws.next = ws.next[:words]
	}
	if cap(ws.est) < n {
		ws.est = make([]float64, n)
		ws.sums = make([]float64, n)
		ws.zeros = make([]int32, n)
	} else {
		ws.est = ws.est[:n]
		ws.sums = ws.sums[:n]
		ws.zeros = ws.zeros[:n]
	}
	if ws.nf == nil {
		ws.nf = make([]float64, 0, 64)
	}
	if cap(ws.changedBuf) < n {
		ws.changedBuf = make([]int32, 0, n)
	}
	if words := (n + 63) >> 6; cap(ws.rows) < words {
		ws.rows = make([]uint64, words)
	} else {
		ws.rows = ws.rows[:words]
	}
	for len(ws.nexts) < workers {
		ws.nexts = append(ws.nexts, make([]int32, 0, 256))
	}
	if len(ws.tallies) < workers {
		ws.tallies = make([]sweepTally, workers)
	}
	if cap(ws.bounds) < workers+1 {
		ws.bounds = make([]int, 0, workers+1)
	}
}

// effectiveDiameter interpolates the smallest t with NF(t) >= q·NF(T).
func effectiveDiameter(nf []float64, q float64) float64 {
	if len(nf) == 0 {
		return 0
	}
	target := q * nf[len(nf)-1]
	if nf[0] >= target {
		return 0
	}
	for t := 1; t < len(nf); t++ {
		if nf[t] >= target {
			return float64(t-1) + (target-nf[t-1])/(nf[t]-nf[t-1])
		}
	}
	return float64(len(nf) - 1)
}

// anfAvgPath derives the mean reachable-pair distance from NF
// differences: pairs at distance exactly t number NF(t) − NF(t−1).
func anfAvgPath(nf []float64) float64 {
	if len(nf) < 2 {
		return 0
	}
	base, total := nf[0], nf[len(nf)-1]
	if total <= base {
		return 0
	}
	var sum float64
	for t := 1; t < len(nf); t++ {
		sum += float64(t) * (nf[t] - nf[t-1])
	}
	return sum / (total - base)
}
