package community

import (
	"math"
	"slices"
)

// NMI computes the normalized mutual information between two
// clusterings of the same vertex set (1 = identical partitions up to
// relabeling, ~0 = independent). Standard for scoring recovered
// communities against planted ground truth. Labels may be any int32
// values: only the label pairs that occur are counted, so memory is
// O(n) however sparse or wide the labels are.
func NMI(a, b []int32) float64 {
	n := len(a)
	if n == 0 || len(b) != n {
		return 0
	}
	la, ca := labelCounts(a)
	lb, cb := labelCounts(b)
	// One key per vertex, its (a, b) pair with the sign bits flipped so
	// that unsigned key order is signed label order: sorted, equal pairs
	// form runs, visited in (a, b) label order.
	const flip = 1 << 31
	pairs := make([]uint64, n)
	for i := range a {
		pairs[i] = uint64(uint32(a[i])^flip)<<32 | uint64(uint32(b[i])^flip)
	}
	slices.Sort(pairs)
	fn := float64(n)
	var mi float64
	for i := 0; i < n; {
		j := i + 1
		for j < n && pairs[j] == pairs[i] {
			j++
		}
		ia, _ := slices.BinarySearch(la, int32(uint32(pairs[i]>>32)^flip))
		ib, _ := slices.BinarySearch(lb, int32(uint32(pairs[i])^flip))
		p := float64(j-i) / fn
		mi += p * math.Log(p/((ca[ia]/fn)*(cb[ib]/fn)))
		i = j
	}
	ha, hb := entropy(ca, fn), entropy(cb, fn)
	if ha == 0 && hb == 0 {
		return 1 // both trivial single-cluster partitions
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0
	}
	return mi / denom
}

// labelCounts returns the distinct labels of xs in ascending order and
// how many times each occurs.
func labelCounts(xs []int32) ([]int32, []float64) {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	labels := sorted[:0]
	var counts []float64
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		labels = append(labels, sorted[i])
		counts = append(counts, float64(j-i))
		i = j
	}
	return labels, counts
}

// entropy is the Shannon entropy of a labeling from its label counts.
func entropy(counts []float64, fn float64) float64 {
	var h float64
	for _, c := range counts {
		p := c / fn
		h -= p * math.Log(p)
	}
	return h
}
