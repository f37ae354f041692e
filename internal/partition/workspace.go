package partition

// Workspace is the reusable state of the multilevel k-way engine. The
// zero value is ready to use. A caller that partitions repeatedly holds
// one and calls KWay; after a warm-up run on a given graph, repeated
// runs allocate nothing on the serial arm (workers == 1). There is no
// package pool: a one-shot call (MultilevelKWay) builds its own
// workspace and drops it, so the ladder's scratch is garbage as soon as
// the call returns. Partitions returned by workspace methods alias
// workspace memory and are valid until the next call on the same
// workspace.
// A workspace is not safe for concurrent use, but its methods
// parallelize internally across the requested workers.
type Workspace struct {
	// Coarsening hierarchy: lv[0] views the input graph, lv[1..] own
	// their materialized buffers. Buffers are grow-only and reused by
	// level index across runs.
	lv []lvl

	// Matching scratch (sized to the current level).
	match []int32
	pref  []int32

	// Contraction scratch: the bucket boundaries of the fine vertices
	// sorted by coarse id (the sorted list itself reuses pref), each
	// coarse row's start in the dedupe arena
	// (rowStart; arcTo/arcW are the arena's target and weight columns)
	// and its unique-arc count, the per-worker coarse-id-indexed tables
	// that serve first as dedupe slots and then as transposition
	// cursors, row weights for the degree-aware splits, the
	// in-adjacency boundaries a directed level passes through, and the
	// cluster weights assignCoarse accumulates.
	memberOff []int32
	rowStart  []int64
	arcTo     []int32
	arcW      []int64
	uniq      []int64
	tabs      [][]int64
	sizes     []int64
	inOff     []int64
	cvw       []int64

	// Level-0 edge weights of a weighted input, truncated to integers
	// the way cutRange reports them.
	w0 []int64

	// Initial-partition scratch: the maintained unassigned list (ulist
	// holds the unassigned vertices, upos[v] is v's index in ulist, -1
	// once assigned) and the BFS growth queue.
	ulist []int32
	upos  []int32
	queue []int32

	// Refinement scratch: part weight accumulators, the pass order,
	// the skip marks of the active-set rule (see proposeMoves),
	// per-worker gather scatters and candidate buffers, and per-worker
	// int64 partials for cut/count reductions.
	weights []int64
	order   []int32
	clean   []bool
	psc     []*partScatter
	cand    [][]int32
	partial []int64

	// stats is the caller's record for the current run, nil when off.
	stats *Stats

	// LCG state expanded from sketch.EffectiveSeed; all serial
	// randomness (greedy growing, pass shuffles) consumes it in
	// sequence, so results are independent of the worker count.
	rng uint64
}

// lvl is one level of the coarsening hierarchy.
type lvl struct {
	view     wview
	coarseOf []int32 // fine-to-coarse map into the next level
	part     []int32 // part assignment of this level's vertices

	// Backing buffers for materialized (coarse) levels; the finest
	// level aliases the input graph instead.
	off []int64
	adj []int32
	ew  []int64
	vw  []int64
}

// scratch returns buf resized to n, reallocating only on growth, so a
// warm workspace reuses its arrays allocation-free. Contents are
// unspecified; callers that need zeroing clear explicitly.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// splitmix64 is the splitmix64 finalizer: a fixed bijective scramble
// used to derive per-level matching salts and per-vertex tie-break
// hashes from the user seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedRNG primes the workspace LCG from a user seed (already passed
// through sketch.EffectiveSeed by the caller).
func (ws *Workspace) seedRNG(seed int64) {
	ws.rng = splitmix64(uint64(seed)) | 1
}

// rngNext steps the LCG.
func (ws *Workspace) rngNext() uint64 {
	ws.rng = ws.rng*6364136223846793005 + 1442695040888963407
	return ws.rng
}

// shuffleOrder applies a Fisher–Yates pass to order using the
// workspace LCG — the deterministic, allocation-free stand-in for
// rand.Perm the move engines use.
func (ws *Workspace) shuffleOrder(order []int32) {
	for i := len(order) - 1; i > 0; i-- {
		j := int(ws.rngNext() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
}

// ensureWorkers sizes the per-worker scatter and candidate state.
func (ws *Workspace) ensureWorkers(workers, k int) {
	for len(ws.psc) < workers {
		ws.psc = append(ws.psc, &partScatter{})
	}
	for len(ws.cand) < workers {
		ws.cand = append(ws.cand, nil)
	}
	for w := 0; w < workers; w++ {
		ws.psc[w].ensure(k)
	}
	ws.partial = scratch(ws.partial, workers)
}

// partScatter accumulates "edge weight from v into part p" in a dense
// int64 array guarded by an epoch-stamp array — the k-way refinement
// analogue of the community engine's moveScatter. begin is O(1); when
// the uint32 epoch wraps the stamps are cleared once every 2^32-1
// gathers.
type partScatter struct {
	wsum    []int64
	stamp   []uint32
	touched []int32
	epoch   uint32
}

func (s *partScatter) ensure(k int) {
	if len(s.stamp) >= k {
		return
	}
	s.wsum = make([]int64, k)
	s.stamp = make([]uint32, k)
	s.epoch = 0
}

func (s *partScatter) begin() {
	s.touched = s.touched[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *partScatter) add(p int32, w int64) {
	if s.stamp[p] != s.epoch {
		s.stamp[p] = s.epoch
		s.wsum[p] = w
		s.touched = append(s.touched, p)
		return
	}
	s.wsum[p] += w
}

// get returns the accumulated weight into p, zero if untouched.
func (s *partScatter) get(p int32) int64 {
	if s.stamp[p] == s.epoch {
		return s.wsum[p]
	}
	return 0
}
