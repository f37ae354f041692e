package community

import "math"

// bucketPQ is the multilevel-bucket maximum tracker the paper attaches
// to every ΔQ matrix row: entries (community id, ΔQ value) are binned
// by quantized value so the row maximum is found by scanning only the
// highest non-empty bucket, and inserts/deletes are O(1) expected.
//
// ΔQ values lie in [-1, 1] but cluster around ±1/m, so the bins are
// logarithmic: sign, then binary exponent, then 3 mantissa bits. Two
// values share a bin only when they are within ~12.5%% of each other,
// which keeps the top bin small for the exact within-bin max scan.
type bucketPQ struct {
	buckets [][]bucketEntry
	loc     map[int32]bucketLoc
	hi      int // index of the highest possibly-non-empty bucket
	// Cached maximum: most Max queries are O(1); the cache is
	// invalidated when the current maximum is deleted or downgraded
	// and lazily rebuilt by a top-bucket scan.
	maxValid bool
	maxEntry bucketEntry
}

type bucketEntry struct {
	id  int32
	val float64
}

type bucketLoc struct {
	bucket int
	pos    int
}

const (
	// Exponents are clamped to [-minExp, 0]; 8 mantissa sub-bins per
	// exponent, both signs, plus a dedicated zero bin.
	minExp      = 63
	magBins     = (minExp + 1) * 8
	zeroBucket  = magBins
	bucketCount = 2*magBins + 1
)

func bucketIndex(v float64) int {
	if v == 0 {
		return zeroBucket
	}
	frac, exp := math.Frexp(math.Abs(v)) // frac in [0.5, 1)
	if exp > 0 {
		exp = 0 // |v| >= 1 saturates at the top magnitude bin
	}
	if exp < -minExp {
		exp = -minExp
	}
	sub := int((frac - 0.5) * 16)
	if sub > 7 {
		sub = 7
	}
	mag := (exp+minExp)*8 + sub // larger |v| -> larger mag
	if v > 0 {
		return zeroBucket + 1 + mag
	}
	return zeroBucket - 1 - mag
}

func newBucketPQ() *bucketPQ {
	return &bucketPQ{
		buckets: make([][]bucketEntry, bucketCount),
		loc:     make(map[int32]bucketLoc),
		hi:      -1,
	}
}

// Set inserts or updates the value of id.
func (b *bucketPQ) Set(id int32, v float64) {
	if b.maxValid {
		switch {
		case id == b.maxEntry.id:
			if v >= b.maxEntry.val {
				b.maxEntry.val = v // raising the max keeps it the max
			} else {
				b.maxValid = false
			}
		case v > b.maxEntry.val || (v == b.maxEntry.val && id < b.maxEntry.id):
			b.maxEntry = bucketEntry{id: id, val: v}
		}
	}
	idx := bucketIndex(v)
	if old, ok := b.loc[id]; ok {
		if idx == old.bucket {
			b.buckets[old.bucket][old.pos].val = v
			return
		}
		b.removeFromBucket(old)
	}
	b.buckets[idx] = append(b.buckets[idx], bucketEntry{id: id, val: v})
	b.loc[id] = bucketLoc{bucket: idx, pos: len(b.buckets[idx]) - 1}
	if idx > b.hi {
		b.hi = idx
	}
}

// Delete removes id, reporting whether it was present.
func (b *bucketPQ) Delete(id int32) bool {
	old, ok := b.loc[id]
	if !ok {
		return false
	}
	if b.maxValid && id == b.maxEntry.id {
		b.maxValid = false
	}
	b.removeFromBucket(old)
	delete(b.loc, id)
	return true
}

// removeFromBucket swap-deletes the entry at l, fixing the moved
// entry's recorded position.
func (b *bucketPQ) removeFromBucket(l bucketLoc) {
	bk := b.buckets[l.bucket]
	last := len(bk) - 1
	if l.pos != last {
		moved := bk[last]
		bk[l.pos] = moved
		b.loc[moved.id] = bucketLoc{bucket: l.bucket, pos: l.pos}
	}
	b.buckets[l.bucket] = bk[:last]
}

// Max returns the id with the largest value (smallest id on ties) and
// its value. ok is false when empty.
func (b *bucketPQ) Max() (id int32, v float64, ok bool) {
	if b.maxValid {
		return b.maxEntry.id, b.maxEntry.val, true
	}
	for b.hi >= 0 && len(b.buckets[b.hi]) == 0 {
		b.hi--
	}
	if b.hi < 0 {
		return 0, 0, false
	}
	bk := b.buckets[b.hi]
	best := bk[0]
	for _, e := range bk[1:] {
		if e.val > best.val || (e.val == best.val && e.id < best.id) {
			best = e
		}
	}
	b.maxValid = true
	b.maxEntry = best
	return best.id, best.val, true
}

// pairHeap is the global lazy max-heap over (community, best ΔQ,
// partner) triples — Algorithm 2's heap H. Entries are invalidated
// lazily: popped entries are checked against the row's current
// maximum before use.
type pairHeap struct {
	items []pairItem
}

type pairItem struct {
	dq   float64
	row  int32
	with int32
}

func (h *pairHeap) Len() int { return len(h.items) }

func (h *pairHeap) Push(it pairItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.greater(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *pairHeap) Pop() pairItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.greater(l, big) {
			big = l
		}
		if r < last && h.greater(r, big) {
			big = r
		}
		if big == i {
			break
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
	return top
}

func (h *pairHeap) greater(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.dq != b.dq {
		return a.dq > b.dq
	}
	if a.row != b.row {
		return a.row < b.row
	}
	return a.with < b.with
}

// BucketPQ exposes the multilevel-bucket row-maximum structure for the
// benchmark harness's ablation study (buckets vs naive linear scan).
type BucketPQ struct{ inner *bucketPQ }

// NewBucketPQForBench returns an empty exported bucket structure.
func NewBucketPQForBench() *BucketPQ { return &BucketPQ{inner: newBucketPQ()} }

// Set inserts or updates the value of id.
func (b *BucketPQ) Set(id int32, v float64) { b.inner.Set(id, v) }

// Max returns the id with the largest value.
func (b *BucketPQ) Max() (int32, float64, bool) { return b.inner.Max() }
