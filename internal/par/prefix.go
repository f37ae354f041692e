package par

// Prefix-sum and histogram-cursor helpers shared by the counting-sort
// style kernels (CSR assembly, transpose, coarsening). Both are
// deterministic: results depend only on the input values, never on
// worker interleaving.

// PrefixSum returns the exclusive prefix sums of x as a fresh slice of
// length len(x)+1: out[0] = 0 and out[i] = x[0] + ... + x[i-1], so
// out[len(x)] is the grand total. Large inputs are processed with a
// two-pass parallel scan (per-chunk totals, serial prefix over the
// chunk totals, then parallel rewrite).
func PrefixSum(x []int64) []int64 {
	n := len(x)
	out := make([]int64, n+1)
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 1<<14 {
		var acc int64
		for i, v := range x {
			out[i] = acc
			acc += v
		}
		out[n] = acc
		return out
	}
	chunkTotal := make([]int64, workers)
	ForChunkedN(n, workers, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		chunkTotal[w] = s
	})
	var acc int64
	for w := 0; w < workers; w++ {
		t := chunkTotal[w]
		chunkTotal[w] = acc
		acc += t
	}
	ForChunkedN(n, workers, func(w, lo, hi int) {
		run := chunkTotal[w]
		for i := lo; i < hi; i++ {
			out[i] = run
			run += x[i]
		}
	})
	out[n] = acc
	return out
}

// CursorsFromCounts converts per-worker bucket histograms into write
// cursors for a stable parallel counting sort. counts[w][v] holds the
// number of items worker w will place into bucket v; on return it holds
// the first write index for those items, laid out so buckets are
// contiguous in v order and, within a bucket, slots appear in worker
// order. offsets must have length n+1 and receives the bucket
// boundaries (offsets[v] .. offsets[v+1]). Returns the grand total.
//
// Because each (worker, bucket) range is disjoint, the subsequent
// placement pass needs no atomics, and items end up ordered first by
// bucket, then by worker id, then by the order the worker emits them —
// a deterministic total order.
func CursorsFromCounts(counts [][]int64, offsets []int64) int64 {
	n := len(offsets) - 1
	workers := len(counts)
	chunks := Workers()
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 || n < 1<<13 {
		var acc int64
		for v := 0; v < n; v++ {
			offsets[v] = acc
			for w := 0; w < workers; w++ {
				c := counts[w][v]
				counts[w][v] = acc
				acc += c
			}
		}
		offsets[n] = acc
		return acc
	}
	chunkTotal := make([]int64, chunks)
	ForChunkedN(n, chunks, func(cw, lo, hi int) {
		var s int64
		for v := lo; v < hi; v++ {
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
	ForChunkedN(n, chunks, func(cw, lo, hi int) {
		run := chunkTotal[cw]
		for v := lo; v < hi; v++ {
			offsets[v] = run
			for w := 0; w < workers; w++ {
				c := counts[w][v]
				counts[w][v] = run
				run += c
			}
		}
	})
	offsets[n] = acc
	return acc
}
